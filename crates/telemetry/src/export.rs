//! Exporters: OpenMetrics scrape endpoint and Perfetto trace conversion.
//!
//! Two ways out of the process for the metrics the rest of this crate
//! collects, both dependency-free:
//!
//! * **OpenMetrics / Prometheus text format.** [`encode_openmetrics`]
//!   renders a [`MetricsRegistry`] snapshot; [`MetricsServer`] serves it
//!   over a minimal std-only HTTP listener so a `curl` or a Prometheus
//!   scraper can read live counters, gauges and latency histograms
//!   (`MetricsServer::serve("127.0.0.1:0")` binds an ephemeral port).
//!   [`check_openmetrics`] is the strict validator the smoke tests run
//!   against every scrape.
//! * **Chrome trace-event JSON (Perfetto-loadable).** [`chrome_trace`]
//!   converts typed [`Event`] streams — straight from a `RingSink`, or
//!   read back from a `JsonlSink` file via [`events_from_jsonl`] — into
//!   per-pipeline tracks with stall/commit spans and hazard/forward
//!   instants. Load the output at <https://ui.perfetto.dev> (one
//!   simulation cycle is rendered as one microsecond).
//!
//! DESIGN.md §2.10 documents the endpoint lifecycle and both formats.

use crate::event::{Event, MemKind};
use crate::histogram::{MetricValue, MetricsRegistry};
use crate::json::{parse, Json, Parsed};
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

pub(crate) fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Render a float the OpenMetrics way (plain decimal; integral values
/// drop the fraction).
fn fmt_value(v: f64) -> String {
    if v == v.trunc() && v.is_finite() && v.abs() < 1e15 {
        format!("{}", v.trunc() as i64)
    } else {
        format!("{v}")
    }
}

fn escape_help(help: &str) -> String {
    help.replace('\\', "\\\\").replace('\n', "\\n")
}

fn escape_label(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Encode a registry snapshot as OpenMetrics text (Prometheus
/// exposition format, `# EOF`-terminated).
///
/// Counters registered as `<family>_total` emit a `counter` family named
/// `<family>`; histograms emit cumulative `_bucket{le="..."}` samples
/// (occupied prefix plus `+Inf`), `_sum`, `_count`, and three companion
/// gauges `<name>_p50` / `<name>_p90` / `<name>_p99` carrying the
/// summary percentiles (OpenMetrics histograms have no quantile samples,
/// so the percentiles ride as their own gauge families).
pub fn encode_openmetrics(registry: &MetricsRegistry) -> String {
    let mut out = String::new();
    for (name, help, value) in registry.iter() {
        match value {
            MetricValue::Counter(v) => {
                let family = name.strip_suffix("_total").unwrap_or(name);
                let _ = writeln!(out, "# TYPE {family} counter");
                let _ = writeln!(out, "# HELP {family} {}", escape_help(help));
                let _ = writeln!(out, "{family}_total {v}");
            }
            MetricValue::Gauge(v) => {
                let _ = writeln!(out, "# TYPE {name} gauge");
                let _ = writeln!(out, "# HELP {name} {}", escape_help(help));
                let _ = writeln!(out, "{name} {}", fmt_value(*v));
            }
            MetricValue::Info(labels) => {
                // Encoded as the conventional constant-1 gauge with the
                // payload in labels (`build_info` style) — the `info`
                // metric type postdates the Prometheus text format and
                // plain gauges scrape everywhere.
                let _ = writeln!(out, "# TYPE {name} gauge");
                let _ = writeln!(out, "# HELP {name} {}", escape_help(help));
                let rendered: Vec<String> = labels
                    .iter()
                    .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
                    .collect();
                let _ = writeln!(out, "{name}{{{}}} 1", rendered.join(","));
            }
            MetricValue::Histogram(h) => {
                let _ = writeln!(out, "# TYPE {name} histogram");
                let _ = writeln!(out, "# HELP {name} {}", escape_help(help));
                let last_occupied = h
                    .buckets()
                    .enumerate()
                    .filter(|&(_, (_, n))| n > 0)
                    .map(|(i, _)| i)
                    .last();
                let mut cumulative = 0u64;
                if let Some(last) = last_occupied {
                    for (i, (le, n)) in h.buckets().enumerate() {
                        if i > last {
                            break;
                        }
                        cumulative += n;
                        let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
                    }
                }
                let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count());
                let _ = writeln!(out, "{name}_sum {}", h.sum());
                let _ = writeln!(out, "{name}_count {}", h.count());
                let s = h.summary();
                for (suffix, v) in [("p50", s.p50), ("p90", s.p90), ("p99", s.p99)] {
                    let _ = writeln!(out, "# TYPE {name}_{suffix} gauge");
                    let _ = writeln!(
                        out,
                        "# HELP {name}_{suffix} {suffix} of {name} (log2-bucket upper bound)"
                    );
                    let _ = writeln!(out, "{name}_{suffix} {v}");
                }
            }
        }
    }
    out.push_str("# EOF\n");
    out
}

fn valid_metric_chars(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b':')
}

/// Strictly validate OpenMetrics text: every line must be a well-formed
/// `# TYPE` / `# HELP` comment or a `name[{labels}] value` sample whose
/// name belongs to a previously declared family, and the document must
/// end with exactly one `# EOF` line. Returns the offending line on
/// failure. This is the checker the verify-script smoke step runs on a
/// live scrape.
pub fn check_openmetrics(text: &str) -> Result<(), String> {
    let mut families: Vec<String> = Vec::new();
    let mut saw_eof = false;
    for (lineno, line) in text.lines().enumerate() {
        let err = |why: &str| Err(format!("line {}: {why}: {line:?}", lineno + 1));
        if saw_eof {
            return err("content after # EOF");
        }
        if line == "# EOF" {
            saw_eof = true;
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.splitn(3, ' ');
            match parts.next() {
                Some("TYPE") => {
                    let Some(family) = parts.next() else {
                        return err("TYPE without family");
                    };
                    if !valid_metric_chars(family) {
                        return err("invalid family name");
                    }
                    match parts.next() {
                        Some("counter" | "gauge" | "histogram" | "summary" | "untyped") => {}
                        _ => return err("unknown metric type"),
                    }
                    families.push(family.to_string());
                }
                Some("HELP") => {
                    if parts.next().is_none() {
                        return err("HELP without family");
                    }
                }
                _ => return err("unknown comment"),
            }
            continue;
        }
        // Sample line: name[{labels}] value
        let (name_labels, value) = match line.rfind(' ') {
            Some(i) => (&line[..i], &line[i + 1..]),
            None => return err("sample without value"),
        };
        let name = match name_labels.find('{') {
            Some(b) => {
                if !name_labels.ends_with('}') {
                    return err("unterminated label block");
                }
                &name_labels[..b]
            }
            None => name_labels,
        };
        if !valid_metric_chars(name) {
            return err("invalid sample name");
        }
        let value_ok = matches!(value, "+Inf" | "-Inf" | "NaN") || value.parse::<f64>().is_ok();
        if !value_ok {
            return err("unparseable sample value");
        }
        let belongs = families
            .iter()
            .any(|f| name == f || name.strip_prefix(f.as_str()).is_some_and(|s| s.starts_with('_')));
        if !belongs {
            return err("sample for undeclared family");
        }
    }
    if !saw_eof {
        return Err("missing # EOF terminator".into());
    }
    Ok(())
}

/// A minimal std-only scrape endpoint serving [`encode_openmetrics`]
/// over HTTP.
///
/// Lifecycle: [`serve`](Self::serve) binds the listener and spawns one
/// serving thread; the caller updates the shared registry through
/// [`update`](Self::update) whenever new numbers are available (scrapes
/// between updates see the previous snapshot); dropping the server stops
/// the thread and closes the port. Every request, whatever the path,
/// receives the full exposition — there is exactly one document to
/// serve.
///
/// The loop is single-threaded, so one misbehaving client must not
/// wedge every scraper behind it: reads *and* writes carry an
/// [`IO_TIMEOUT`] deadline (a stalled or unread connection is abandoned,
/// not waited on), and a request head larger than [`MAX_REQUEST_BYTES`]
/// is answered with `431` instead of being buffered without bound.
pub struct MetricsServer {
    addr: SocketAddr,
    registry: Arc<Mutex<MetricsRegistry>>,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for MetricsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsServer")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

/// Per-connection socket deadline for the scrape endpoint, on both the
/// request read and the response write.
pub const IO_TIMEOUT: Duration = Duration::from_millis(500);

/// Largest request head the scrape endpoint will buffer before
/// answering `431` — scrape requests are one line plus a few headers.
pub const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// How draining one request head went.
enum RequestHead {
    /// The blank line arrived: a complete (enough) HTTP request.
    Complete,
    /// The client streamed past [`MAX_REQUEST_BYTES`] without one.
    TooLarge,
    /// The client stalled ([`IO_TIMEOUT`]) or hung up first.
    Stalled,
}

/// Answer one scrape connection under the [`IO_TIMEOUT`] deadlines: an
/// oversized request head gets `431`; a complete one gets `200` with the
/// OpenMetrics document `render` produces, and so does a stalled one,
/// best-effort — there is only one resource, and the write deadline
/// bounds the time a dead peer can cost. Shared by [`MetricsServer`] and
/// the collector's scrape side.
pub(crate) fn serve_scrape(mut stream: TcpStream, render: impl FnOnce() -> String) {
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let (status, content_type, body) = match read_request_head(&mut stream) {
        RequestHead::TooLarge => (
            "431 Request Header Fields Too Large",
            "text/plain; charset=utf-8",
            "request head too large\n".to_string(),
        ),
        RequestHead::Complete | RequestHead::Stalled => (
            "200 OK",
            "application/openmetrics-text; version=1.0.0; charset=utf-8",
            render(),
        ),
    };
    let response = format!(
        "HTTP/1.1 {status}\r\n\
         Content-Type: {content_type}\r\n\
         Content-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(response.as_bytes());
}

/// Drain the request head until its terminating blank line, the size
/// cap, or the socket deadline — whichever comes first.
fn read_request_head(stream: &mut TcpStream) -> RequestHead {
    let mut head = Vec::with_capacity(256);
    let mut chunk = [0u8; 1024];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return RequestHead::Stalled,
            Ok(n) => {
                head.extend_from_slice(&chunk[..n]);
                if head.windows(4).any(|w| w == b"\r\n\r\n") {
                    return RequestHead::Complete;
                }
                if head.len() > MAX_REQUEST_BYTES {
                    return RequestHead::TooLarge;
                }
            }
            // EINTR is a retry, not a stalled client.
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return RequestHead::Stalled,
        }
    }
}

impl MetricsServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// start serving an initially empty registry.
    pub fn serve(addr: &str) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let registry = Arc::new(Mutex::new(MetricsRegistry::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let (reg_thread, stop_thread) = (Arc::clone(&registry), Arc::clone(&stop));
        let handle = std::thread::Builder::new()
            .name("qtaccel-metrics".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if stop_thread.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    serve_scrape(stream, || encode_openmetrics(&lock_unpoisoned(&reg_thread)));
                }
            })?;
        Ok(Self {
            addr: local,
            registry,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (read the ephemeral port from here).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Mutate the served registry under the endpoint lock.
    pub fn update<R>(&self, f: impl FnOnce(&mut MetricsRegistry) -> R) -> R {
        f(&mut lock_unpoisoned(&self.registry))
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with one throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(500));
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Scrape `addr` once over plain HTTP and return the response body —
/// the client half the smoke tests pair with [`MetricsServer`].
pub fn scrape(addr: impl ToSocketAddrs) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.write_all(b"GET /metrics HTTP/1.1\r\nHost: qtaccel\r\nConnection: close\r\n\r\n")?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    match response.split_once("\r\n\r\n") {
        Some((_, body)) => Ok(body.to_string()),
        None => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "response has no header/body separator",
        )),
    }
}

/// Parse one [`Event`] back from its JSONL object form (the inverse of
/// `Event::to_json`, used to feed trace files into [`chrome_trace`]).
fn event_from_parsed(p: &Parsed) -> Result<Event, String> {
    let t = p
        .get("t")
        .and_then(|v| v.as_str())
        .ok_or("event lacks a \"t\" discriminator")?;
    let cycle = p
        .get("cycle")
        .and_then(|v| v.as_u64())
        .ok_or("event lacks a cycle")?;
    let mem = || -> Result<MemKind, String> {
        match p.get("mem").and_then(|v| v.as_str()) {
            Some("q") => Ok(MemKind::Q),
            Some("qmax") => Ok(MemKind::Qmax),
            other => Err(format!("bad mem field {other:?}")),
        }
    };
    let addr = || {
        p.get("addr")
            .and_then(|v| v.as_u64())
            .ok_or_else(|| "event lacks an addr".to_string())
    };
    match t {
        "stage" => Ok(Event::Stage {
            cycle,
            stage: p
                .get("stage")
                .and_then(|v| v.as_u64())
                .filter(|&s| (1..=4).contains(&s))
                .ok_or("bad stage field")? as u8,
            iteration: p
                .get("iteration")
                .and_then(|v| v.as_u64())
                .ok_or("stage event lacks an iteration")?,
        }),
        "hazard" => Ok(Event::Hazard {
            cycle,
            mem: mem()?,
            addr: addr()?,
        }),
        "stall_begin" => Ok(Event::StallBegin {
            cycle,
            mem: mem()?,
            addr: addr()?,
        }),
        "stall_end" => Ok(Event::StallEnd { cycle }),
        "forward" => Ok(Event::Forward {
            cycle,
            mem: mem()?,
            addr: addr()?,
        }),
        "commit" => Ok(Event::Commit {
            cycle,
            mem: mem()?,
            addr: addr()?,
        }),
        other => Err(format!("unknown event type {other:?}")),
    }
}

/// Read a `JsonlSink` stream back into typed events, one strict-parsed
/// line at a time. Blank lines are skipped; a malformed line (including
/// a final partial line from a process that died mid-write) is an error
/// naming the line number — callers that expect truncation parse
/// line-by-line themselves and stop at the first failure.
pub fn events_from_jsonl(text: &str) -> Result<Vec<Event>, String> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let parsed = parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        events.push(event_from_parsed(&parsed).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(events)
}

fn instant_json(tid: u64, ts: u64, name: &'static str, mem: MemKind, addr: u64) -> Json {
    Json::Obj(vec![
        ("ph", Json::Str("i".into())),
        ("s", Json::Str("t".into())),
        ("name", Json::Str(name.into())),
        ("cat", Json::Str(name.into())),
        ("pid", Json::UInt(1)),
        ("tid", Json::UInt(tid)),
        ("ts", Json::UInt(ts)),
        (
            "args",
            Json::Obj(vec![
                ("mem", Json::Str(mem.name().into())),
                ("addr", Json::UInt(addr)),
            ]),
        ),
    ])
}

fn span_json(
    tid: u64,
    ts: u64,
    dur: u64,
    name: String,
    cat: &'static str,
    args: Vec<(&'static str, Json)>,
) -> Json {
    Json::Obj(vec![
        ("ph", Json::Str("X".into())),
        ("name", Json::Str(name)),
        ("cat", Json::Str(cat.into())),
        ("pid", Json::UInt(1)),
        ("tid", Json::UInt(tid)),
        ("ts", Json::UInt(ts)),
        ("dur", Json::UInt(dur)),
        ("args", Json::Obj(args)),
    ])
}

/// Convert per-pipeline event streams into a Chrome trace-event document
/// (the JSON object form Perfetto loads directly).
///
/// Each `(track_name, events)` pair becomes one named thread track under
/// pid 1 (tid = index): stage occupancy renders as 1-cycle `stage{n}`
/// slices, stalls as `stall` spans covering the full interval, commits
/// as 1-cycle `commit` spans, and hazards/forwards as instant markers.
/// Timestamps map one simulation cycle to one trace microsecond and are
/// sorted non-decreasing within every track (stall spans are emitted at
/// their begin cycle, which can precede events recorded mid-stall).
pub fn chrome_trace(tracks: &[(String, Vec<Event>)]) -> Json {
    let mut trace_events: Vec<Json> = Vec::new();
    for (tid, (track_name, events)) in tracks.iter().enumerate() {
        let tid = tid as u64;
        trace_events.push(Json::Obj(vec![
            ("ph", Json::Str("M".into())),
            ("pid", Json::UInt(1)),
            ("tid", Json::UInt(tid)),
            ("name", Json::Str("thread_name".into())),
            (
                "args",
                Json::Obj(vec![("name", Json::Str(track_name.clone()))]),
            ),
        ]));
        let mut emitted: Vec<(u64, Json)> = Vec::new();
        let mut open_stall: Option<(u64, MemKind, u64)> = None;
        let mut last_cycle = 0u64;
        for ev in events {
            last_cycle = last_cycle.max(ev.cycle());
            match *ev {
                Event::Stage {
                    cycle,
                    stage,
                    iteration,
                } => emitted.push((
                    cycle,
                    span_json(
                        tid,
                        cycle,
                        1,
                        format!("stage{stage}"),
                        "stage",
                        vec![("iteration", Json::UInt(iteration))],
                    ),
                )),
                Event::Hazard { cycle, mem, addr } => {
                    emitted.push((cycle, instant_json(tid, cycle, "hazard", mem, addr)));
                }
                Event::Forward { cycle, mem, addr } => {
                    emitted.push((cycle, instant_json(tid, cycle, "forward", mem, addr)));
                }
                Event::Commit { cycle, mem, addr } => emitted.push((
                    cycle,
                    span_json(
                        tid,
                        cycle,
                        1,
                        "commit".into(),
                        "commit",
                        vec![
                            ("mem", Json::Str(mem.name().into())),
                            ("addr", Json::UInt(addr)),
                        ],
                    ),
                )),
                Event::StallBegin { cycle, mem, addr } => open_stall = Some((cycle, mem, addr)),
                Event::StallEnd { cycle } => {
                    if let Some((begin, mem, addr)) = open_stall.take() {
                        emitted.push((
                            begin,
                            span_json(
                                tid,
                                begin,
                                cycle.saturating_sub(begin),
                                "stall".into(),
                                "stall",
                                vec![
                                    ("mem", Json::Str(mem.name().into())),
                                    ("addr", Json::UInt(addr)),
                                ],
                            ),
                        ));
                    }
                }
            }
        }
        // A trace cut mid-stall still shows the open interval.
        if let Some((begin, mem, addr)) = open_stall {
            emitted.push((
                begin,
                span_json(
                    tid,
                    begin,
                    last_cycle.saturating_sub(begin),
                    "stall".into(),
                    "stall",
                    vec![
                        ("mem", Json::Str(mem.name().into())),
                        ("addr", Json::UInt(addr)),
                    ],
                ),
            ));
        }
        // Stall spans surface at their begin cycle, so restore the
        // per-track monotonic ts order Perfetto expects.
        emitted.sort_by_key(|&(ts, _)| ts);
        trace_events.extend(emitted.into_iter().map(|(_, j)| j));
    }
    Json::Obj(vec![
        ("traceEvents", Json::Arr(trace_events)),
        ("displayTimeUnit", Json::Str("ms".into())),
    ])
}

/// Render a training-health snapshot series as Chrome trace counter
/// events (`ph:"C"`), one counter track per probe quantity, so TD-error,
/// policy churn, rail proximity and state coverage plot as time series
/// in ui.perfetto.dev alongside the span tracks from [`chrome_trace`].
///
/// `track_name` prefixes every counter name (counter tracks are keyed by
/// name, so per-pipeline prefixes keep multi-pipeline documents apart);
/// timestamps reuse the 1 cycle = 1 µs mapping. Counters carry the
/// cumulative probe values at each snapshot — Perfetto renders the
/// series directly, and rates are one derivative away.
pub fn health_counter_tracks(
    track_name: &str,
    series: &[crate::health::HealthSnapshot],
) -> Vec<Json> {
    let mut events = Vec::with_capacity(series.len() * 4);
    for snap in series {
        let coverage = if snap.num_states > 0 {
            snap.states_visited as f64 / snap.num_states as f64
        } else {
            0.0
        };
        let counters: [(&str, Json); 4] = [
            ("td_error_p99", Json::UInt(snap.td.p99)),
            ("policy_churn", Json::UInt(snap.churn)),
            (
                "near_rail",
                Json::UInt(snap.near_rail_q + snap.near_rail_qmax),
            ),
            ("state_coverage", Json::Num(coverage)),
        ];
        for (suffix, value) in counters {
            events.push(Json::Obj(vec![
                ("ph", Json::Str("C".into())),
                ("name", Json::Str(format!("{track_name}/{suffix}"))),
                ("pid", Json::UInt(1)),
                ("ts", Json::UInt(snap.cycle)),
                ("args", Json::Obj(vec![("value", value)])),
            ]));
        }
    }
    events
}

/// [`chrome_trace`] plus [`health_counter_tracks`]: span tracks from the
/// event streams and counter tracks from the health series, one loadable
/// document.
pub fn chrome_trace_with_health(
    tracks: &[(String, Vec<Event>)],
    health: &[(String, Vec<crate::health::HealthSnapshot>)],
) -> Json {
    let mut doc = chrome_trace(tracks);
    if let Json::Obj(fields) = &mut doc {
        if let Some((_, Json::Arr(events))) =
            fields.iter_mut().find(|(k, _)| *k == "traceEvents")
        {
            for (name, series) in health {
                events.extend(health_counter_tracks(name, series));
            }
        }
    }
    doc
}

/// [`chrome_trace`] over JSONL trace files: each `(track_name, text)`
/// pair is parsed with [`events_from_jsonl`] first.
pub fn chrome_trace_from_jsonl(tracks: &[(String, String)]) -> Result<Json, String> {
    let mut parsed = Vec::with_capacity(tracks.len());
    for (name, text) in tracks {
        parsed.push((name.clone(), events_from_jsonl(text).map_err(|e| format!("{name}: {e}"))?));
    }
    Ok(chrome_trace(&parsed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::{CounterBank, CounterId};
    use crate::json::ToJson;

    fn sample_registry() -> MetricsRegistry {
        let mut bank = CounterBank::new();
        bank.add(CounterId::SamplesRetired, 12345);
        bank.add(CounterId::FwdQHit, 67);
        let mut r = MetricsRegistry::new();
        r.record_counter_bank(&bank);
        r.set_gauge("qtaccel_executor_queue_depth", "sampled queue depth", 3.0);
        for v in [100u64, 200, 400, 100_000] {
            r.observe("qtaccel_executor_chunk_service_ns", "chunk service", v);
        }
        r
    }

    #[test]
    fn openmetrics_encodes_counters_gauges_histograms() {
        let text = encode_openmetrics(&sample_registry());
        assert!(text.contains("# TYPE qtaccel_samples counter\n"));
        assert!(text.contains("qtaccel_samples_total 12345\n"));
        assert!(text.contains("# TYPE qtaccel_executor_queue_depth gauge\n"));
        assert!(text.contains("qtaccel_executor_queue_depth 3\n"));
        assert!(text.contains("# TYPE qtaccel_executor_chunk_service_ns histogram\n"));
        assert!(text.contains("qtaccel_executor_chunk_service_ns_bucket{le=\"+Inf\"} 4\n"));
        assert!(text.contains("qtaccel_executor_chunk_service_ns_count 4\n"));
        assert!(text.contains("qtaccel_executor_chunk_service_ns_p50 "));
        assert!(text.contains("qtaccel_executor_chunk_service_ns_p99 "));
        assert!(text.ends_with("# EOF\n"));
        check_openmetrics(&text).expect("self-validates");
    }

    #[test]
    fn openmetrics_buckets_are_cumulative() {
        let mut r = MetricsRegistry::new();
        for v in [1u64, 2, 2, 5] {
            r.observe("qtaccel_test_ns", "t", v);
        }
        let text = encode_openmetrics(&r);
        // value 1 -> le=1 (1), values 2,2 -> le=3 (cum 3), value 5 -> le=7 (cum 4).
        assert!(text.contains("qtaccel_test_ns_bucket{le=\"1\"} 1\n"));
        assert!(text.contains("qtaccel_test_ns_bucket{le=\"3\"} 3\n"));
        assert!(text.contains("qtaccel_test_ns_bucket{le=\"7\"} 4\n"));
        assert!(text.contains("qtaccel_test_ns_sum 10\n"));
        check_openmetrics(&text).unwrap();
    }

    #[test]
    fn checker_rejects_malformed_documents() {
        for bad in [
            "",                                           // no EOF
            "qtaccel_x 1\n# EOF\n",                       // undeclared family
            "# TYPE qtaccel_x gauge\nqtaccel_x\n# EOF\n", // no value
            "# TYPE qtaccel_x wat\n# EOF\n",              // bad type
            "# TYPE qtaccel_x gauge\nqtaccel_x one\n# EOF\n", // bad value
            "# EOF\ntrailing 1\n",                        // content after EOF
        ] {
            assert!(check_openmetrics(bad).is_err(), "should reject {bad:?}");
        }
        let good = "# TYPE qtaccel_x gauge\nqtaccel_x 1.5\n# EOF\n";
        check_openmetrics(good).unwrap();
    }

    #[test]
    fn server_serves_scrapes_and_shuts_down() {
        let server = MetricsServer::serve("127.0.0.1:0").expect("bind ephemeral");
        server.update(|reg| {
            let mut bank = CounterBank::new();
            bank.add(CounterId::SamplesRetired, 9);
            reg.record_counter_bank(&bank);
        });
        let body = scrape(server.addr()).expect("scrape");
        check_openmetrics(&body).expect("valid exposition");
        assert!(body.contains("qtaccel_samples_total 9\n"));
        // Second scrape sees an updated snapshot.
        server.update(|reg| reg.set_gauge("qtaccel_live", "live", 1.0));
        let body2 = scrape(server.addr()).expect("second scrape");
        assert!(body2.contains("qtaccel_live 1\n"));
        drop(server); // joins the serving thread, closes the port
    }

    #[test]
    fn slow_and_oversized_clients_cannot_wedge_the_server() {
        let server = MetricsServer::serve("127.0.0.1:0").expect("bind ephemeral");
        server.update(|reg| reg.set_gauge("qtaccel_live", "live", 1.0));
        // The collector's scrape side answers through the same responder.
        let collector = crate::collector::Collector::serve("127.0.0.1:0").expect("bind ephemeral");

        for addr in [server.addr(), collector.addr()] {
            // A slow-loris client: partial request head, then silence. The
            // read deadline abandons it within IO_TIMEOUT.
            let mut loris = TcpStream::connect(addr).expect("connect");
            loris
                .write_all(b"GET /metrics HTTP/1.1\r\nHost: qt")
                .expect("partial head");

            // A client streaming an unbounded "request": the size cap answers
            // 431 instead of buffering it all.
            let mut hog = TcpStream::connect(addr).expect("connect");
            hog.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let junk = [b'x'; 1024];
            let mut sent = 0;
            while sent <= MAX_REQUEST_BYTES {
                hog.write_all(&junk).expect("stream junk");
                sent += junk.len();
            }
            let mut status = String::new();
            hog.read_to_string(&mut status).expect("read 431");
            assert!(
                status.starts_with("HTTP/1.1 431 "),
                "oversized head must be refused: {status:?}"
            );

            // Behind both of them, a well-behaved scraper is still served
            // promptly (scrape's own 5 s deadline is the proof).
            let body = scrape(addr).expect("scrape behind bad clients");
            check_openmetrics(&body).expect("valid exposition");
            if addr == server.addr() {
                assert!(body.contains("qtaccel_live 1\n"));
            }
            drop(loris);
        }
    }

    fn stall_stream() -> Vec<Event> {
        vec![
            Event::Stage {
                cycle: 1,
                stage: 1,
                iteration: 0,
            },
            Event::Hazard {
                cycle: 2,
                mem: MemKind::Q,
                addr: 7,
            },
            Event::StallBegin {
                cycle: 2,
                mem: MemKind::Q,
                addr: 7,
            },
            Event::Commit {
                cycle: 3,
                mem: MemKind::Qmax,
                addr: 1,
            },
            Event::StallEnd { cycle: 5 },
            Event::Forward {
                cycle: 6,
                mem: MemKind::Qmax,
                addr: 3,
            },
        ]
    }

    #[test]
    fn chrome_trace_round_trips_with_monotonic_tracks() {
        let tracks = vec![
            ("pipeline-0".to_string(), stall_stream()),
            ("pipeline-1".to_string(), stall_stream()),
        ];
        let doc = chrome_trace(&tracks);
        let p = parse(&doc.pretty()).expect("strict parse");
        let events = p.get("traceEvents").unwrap().as_arr().unwrap();
        // 2 metadata + 2×(1 stage + 1 hazard + 1 stall span + 1 commit + 1 forward)
        assert_eq!(events.len(), 2 + 2 * 5);
        let names: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("name").and_then(|n| n.as_str()))
            .collect();
        assert!(names.contains(&"thread_name"));
        assert!(names.contains(&"stall"));
        assert!(names.contains(&"commit"));
        // Per-track ts must be non-decreasing.
        for tid in 0..2u64 {
            let ts: Vec<u64> = events
                .iter()
                .filter(|e| {
                    e.get("tid").and_then(|t| t.as_u64()) == Some(tid)
                        && e.get("ts").is_some()
                })
                .map(|e| e.get("ts").unwrap().as_u64().unwrap())
                .collect();
            assert!(ts.windows(2).all(|w| w[0] <= w[1]), "tid {tid}: {ts:?}");
        }
        // The stall span covers cycles 2..5.
        let stall = events
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("stall"))
            .unwrap();
        assert_eq!(stall.get("ts").unwrap().as_u64(), Some(2));
        assert_eq!(stall.get("dur").unwrap().as_u64(), Some(3));
    }

    #[test]
    fn health_counter_tracks_render_the_snapshot_series() {
        use crate::health::{HealthConfig, HealthProbe};
        let mut probe = HealthProbe::new(HealthConfig::default());
        probe.bind_states(4);
        probe.observe_sample(10, 1, 0, 256, 16, true, true);
        let series = vec![probe.snapshot()];
        let emitted = Json::Arr(health_counter_tracks("p0", &series));
        let parsed = parse(&emitted.compact()).expect("counter events are valid JSON");
        let events = parsed.as_arr().unwrap();
        assert_eq!(events.len(), 4, "four counter tracks per snapshot");
        for e in events {
            assert_eq!(e.get("ph").unwrap().as_str(), Some("C"));
            assert_eq!(e.get("ts").unwrap().as_u64(), Some(10));
            assert!(e.get("args").unwrap().get("value").is_some());
        }
        let names: Vec<&str> = events
            .iter()
            .map(|e| e.get("name").unwrap().as_str().unwrap())
            .collect();
        for suffix in ["td_error_p99", "policy_churn", "near_rail", "state_coverage"] {
            assert!(names.contains(&format!("p0/{suffix}").as_str()), "{names:?}");
        }
        // Counters merge into one loadable document next to span tracks,
        // and the whole thing survives the strict parser.
        let doc = chrome_trace_with_health(
            &[("p0".into(), stall_stream())],
            &[("p0".into(), series)],
        );
        let reparsed = parse(&doc.compact()).expect("valid JSON");
        let n = reparsed.get("traceEvents").unwrap().as_arr().unwrap().len();
        let spans = parse(&chrome_trace(&[("p0".into(), stall_stream())]).compact()).unwrap();
        let spans_n = spans.get("traceEvents").unwrap().as_arr().unwrap().len();
        assert_eq!(n, spans_n + 4, "counter events appended to the span set");
    }

    #[test]
    fn jsonl_events_parse_back_into_typed_stream() {
        let text: String = stall_stream()
            .iter()
            .map(|e| e.to_json().compact() + "\n")
            .collect();
        let events = events_from_jsonl(&text).expect("parses");
        assert_eq!(events, stall_stream());
        // A truncated final line is an error naming the line.
        let cut = &text[..text.len() - 10];
        let err = events_from_jsonl(cut).unwrap_err();
        assert!(err.starts_with("line 6:"), "{err}");
        // And the document form round-trips through the strict parser.
        let doc = chrome_trace_from_jsonl(&[("p0".into(), text)]).unwrap();
        parse(&doc.compact()).expect("valid JSON");
    }
}
