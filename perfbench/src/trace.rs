//! The benchmark's own spans around each call into a layer's public
//! function. Spans live in memory (one buffer per generator thread, merged
//! at phase end) and are written as a Chrome `trace_event` file at exit.
//! Per-name time and count totals cover every span recorded, stored or not,
//! so figures derived from them do not depend on the storage caps.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Spans kept per thread buffer and in total, so a fast workload cannot
/// exhaust memory or disk. A full buffer overwrites its oldest span (every
/// record costs the same, so `trace.overhead_pct` keeps measuring it); past
/// the total, merged spans are counted, not stored.
const SPANS_PER_BUF: usize = 20_000;
const SPANS_TOTAL: usize = 150_000;

/// Count and summed nanoseconds per span name.
type Totals = Vec<(&'static str, u64, u64)>;

fn add_total(totals: &mut Totals, name: &'static str, n: u64, ns: u64) {
    match totals.iter_mut().find(|t| t.0 == name) {
        Some(t) => {
            t.1 += n;
            t.2 += ns;
        }
        None => totals.push((name, n, ns)),
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub id: u64,
    pub parent: u64,
    pub op: u64,
    pub tid: u64,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_tid: AtomicU64,
    next_enclosing: AtomicU64,
    spans: Mutex<Vec<Span>>,
    totals: Mutex<Totals>,
    dropped: AtomicU64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            next_tid: AtomicU64::new(1),
            next_enclosing: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            totals: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
        }
    }

    /// A buffer for one thread; `traced` lets a phase run untraced inside a
    /// traced invocation (the overhead comparison window).
    pub fn buf(&self, traced: bool) -> SpanBuf {
        let tid = self.next_tid.fetch_add(1, Ordering::Relaxed);
        SpanBuf {
            on: self.on && traced,
            epoch: self.epoch,
            tid,
            next: 0,
            spans: Vec::new(),
            totals: Vec::new(),
            dropped: 0,
        }
    }

    pub fn merge(&self, buf: SpanBuf) {
        {
            let mut totals = self.totals.lock().expect("span totals poisoned");
            for &(name, n, ns) in &buf.totals {
                add_total(&mut totals, name, n, ns);
            }
        }
        let mut spans = self
            .spans
            .lock()
            .expect("span store poisoned by a panicking generator");
        let keep = buf.spans.len().min(SPANS_TOTAL.saturating_sub(spans.len()));
        let over = (buf.spans.len() - keep) as u64;
        self.dropped
            .fetch_add(buf.dropped + over, Ordering::Relaxed);
        spans.extend_from_slice(&buf.spans[..keep]);
    }

    /// Opens a span that brackets other spans (a phase or a ladder rung);
    /// children name its `id` as their parent. Enclosing spans live on
    /// track 0, so their ids never collide with per-thread span ids.
    pub fn begin(&self, name: &'static str) -> Enclosing {
        Enclosing {
            id: self.next_enclosing.fetch_add(1, Ordering::Relaxed),
            name,
            start: Instant::now(),
        }
    }

    pub fn end(&self, e: Enclosing) {
        if self.on {
            let mut b = self.buf(true);
            b.tid = 0;
            b.push(e.name, e.start, Instant::now(), e.id, 0, 0);
            self.merge(b);
        }
    }

    pub fn span_count(&self) -> usize {
        self.spans.lock().map_or(0, |s| s.len())
    }

    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Count and summed duration (ns) of every span recorded under `name`,
    /// whether or not it was stored.
    pub fn totals(&self, name: &str) -> (u64, u64) {
        let totals = self.totals.lock().expect("span totals poisoned");
        totals
            .iter()
            .find(|t| t.0 == name)
            .map_or((0, 0), |t| (t.1, t.2))
    }

    pub fn write_chrome(&self, out: &mut impl Write) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span store poisoned");
        out.write_all(b"{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n")?;
        for (i, s) in spans.iter().enumerate() {
            let sep = if i + 1 < spans.len() { "," } else { "" };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"op\":{}}}}}{sep}",
                s.name,
                s.tid,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.id,
                s.parent,
                s.op
            )?;
        }
        out.write_all(b"]}\n")?;
        out.flush()
    }
}

pub struct Enclosing {
    pub id: u64,
    name: &'static str,
    start: Instant,
}

pub struct SpanBuf {
    on: bool,
    epoch: Instant,
    tid: u64,
    next: u64,
    spans: Vec<Span>,
    totals: Totals,
    /// Spans overwritten once the buffer was full.
    dropped: u64,
}

impl SpanBuf {
    /// A buffer that records nothing.
    pub fn off() -> Self {
        Self {
            on: false,
            epoch: Instant::now(),
            tid: 0,
            next: 0,
            spans: Vec::new(),
            totals: Vec::new(),
            dropped: 0,
        }
    }

    /// Records `name` over `[start, end]`; returns the span id (0 when
    /// tracing is off for this buffer).
    #[inline]
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u64,
        op: u64,
    ) -> u64 {
        if !self.on {
            return 0;
        }
        self.next += 1;
        let id = self.tid << 32 | self.next;
        self.push(name, start, end, id, parent, op);
        id
    }

    fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        id: u64,
        parent: u64,
        op: u64,
    ) {
        let span = Span {
            name,
            start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.saturating_duration_since(self.epoch).as_nanos() as u64,
            id,
            parent,
            op,
            tid: self.tid,
        };
        add_total(&mut self.totals, name, 1, span.end_ns - span.start_ns);
        if self.spans.len() < SPANS_PER_BUF {
            self.spans.push(span);
        } else {
            self.spans[self.dropped as usize % SPANS_PER_BUF] = span;
            self.dropped += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn chrome_file_holds_every_span_with_parent_and_op() {
        let t = Tracer::new(true);
        let t0 = Instant::now();
        let enclosing = t.begin("phase.x");
        let phase = enclosing.id;
        let mut b = t.buf(true);
        b.record("layer.call", t0, Instant::now(), phase, 7);
        let mut off = t.buf(false);
        assert_eq!(off.record("layer.call", t0, t0, phase, 8), 0);
        t.merge(b);
        t.merge(off);
        t.end(enclosing);
        assert_eq!(t.span_count(), 2);
        let mut body = Vec::new();
        t.write_chrome(&mut body).expect("write trace");
        let body = String::from_utf8(body).expect("utf-8 trace");
        let v = crate::json::parse(&body).expect("trace parses as JSON");
        let events = v
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .expect("events");
        assert_eq!(events.len(), 2);
        let call = &events[0];
        assert_eq!(
            call.get("name").and_then(|n| n.as_str()),
            Some("layer.call")
        );
        let args = call.get("args").expect("args");
        assert_eq!(args.get("op").and_then(|o| o.as_f64()), Some(7.0));
        assert_eq!(
            args.get("parent").and_then(|o| o.as_f64()),
            Some(phase as f64)
        );
    }

    #[test]
    fn totals_count_spans_past_the_storage_cap() {
        let t = Tracer::new(true);
        let mut b = t.buf(true);
        let t0 = Instant::now();
        let n = SPANS_PER_BUF as u64 + 10;
        for i in 0..n {
            b.record("layer.call", t0, t0 + Duration::from_nanos(3), 0, i);
        }
        t.merge(b);
        assert_eq!(t.span_count(), SPANS_PER_BUF);
        assert_eq!(t.dropped(), 10);
        assert_eq!(t.totals("layer.call"), (n, 3 * n));
        assert_eq!(t.totals("other"), (0, 0));
    }
}
