//! The harness's own span recorder: `{name, start_ns, end_ns, parent,
//! workload}` records taken *around* calls into the program's public
//! functions, kept in memory and written once at exit in the
//! Chrome-trace shape `mrpic_trace::chrome` parses.

use mrpic::trace::{chrome, SpanRec, Trace};
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Thread track (0 = the harness main thread).
    pub track: u32,
}

/// In-memory span store. `enabled == false` turns `begin`/`end` into
/// two branch instructions, which is what an untraced pass runs with.
pub struct Recorder {
    pub workload: String,
    pub enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(workload: &str, enabled: bool) -> Self {
        Self {
            workload: workload.to_string(),
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span whose parent is the innermost open span.
    pub fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.iter().rev().nth(1).copied(),
            track: 0,
        });
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Time `f` under a span and return its result with the elapsed
    /// nanoseconds (measured whether or not recording is on).
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
        self.begin(name);
        let t = Instant::now();
        let r = f();
        let ns = t.elapsed().as_nanos() as u64;
        self.end();
        (r, ns)
    }

    /// Add a finished span measured elsewhere (a client thread's view
    /// of a server exchange) under the innermost open span.
    pub fn add(&mut self, name: &'static str, start: Instant, end: Instant, track: u32) {
        if !self.enabled {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.t0).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent: self.open.last().copied(),
            track,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Every span as an `mrpic_trace::Trace`; the workload name rides
    /// on a root span so `mrpic_prof` shows it in the top-span table.
    pub fn to_trace(&self) -> Trace {
        let end = self.spans.iter().map(|s| s.end_ns).max().unwrap_or(0);
        let root = format!("workload:{}", self.workload);
        let depth_of = |mut i: usize| {
            let mut d = 1u32;
            while let Some(p) = self.spans[i].parent {
                d += 1;
                i = p;
            }
            d
        };
        let mut recs = vec![SpanRec {
            name: root,
            rank: -1,
            tid: 0,
            begin_ns: 0,
            end_ns: end,
            depth: 0,
            arg0: -1,
            arg1: -1,
        }];
        recs.extend(self.spans.iter().enumerate().map(|(i, s)| SpanRec {
            name: s.name.to_string(),
            rank: -1,
            tid: s.track,
            begin_ns: s.start_ns,
            end_ns: s.end_ns,
            // Spans on client tracks are top level on their own track.
            depth: if s.track == 0 { depth_of(i) } else { 0 },
            arg0: s.parent.map_or(-1, |p| p as i64),
            arg1: -1,
        }));
        recs.sort_by_key(|s| (s.begin_ns, std::cmp::Reverse(s.end_ns)));
        Trace {
            spans: recs,
            dropped: 0,
        }
    }

    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        chrome::write(&self.to_trace(), path)
    }
}

/// A span's self time: its duration minus the part its direct children
/// cover (children of one parent never overlap on a track).
pub fn self_time_ns(spans: &[Span], i: usize) -> u64 {
    let dur = |s: &Span| s.end_ns.saturating_sub(s.start_ns);
    let children: u64 = spans
        .iter()
        .filter(|s| s.parent == Some(i) && s.track == spans[i].track)
        .map(dur)
        .sum();
    dur(&spans[i]).saturating_sub(children)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            track: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("step", 0, 100, None),
            span("kernels", 10, 60, Some(0)),
            span("gather", 10, 30, Some(1)),
            span("field", 60, 90, Some(0)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 20);
        assert_eq!(self_time_ns(&spans, 1), 30);
        assert_eq!(self_time_ns(&spans, 2), 20);
    }

    #[test]
    fn recorder_links_parents_and_nests() {
        let mut r = Recorder::new("t", true);
        r.begin("outer");
        r.time("inner", || ());
        r.end();
        let s = r.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }

    #[test]
    fn disabled_recorder_keeps_nothing_but_still_times() {
        let mut r = Recorder::new("t", false);
        let ((), ns) = r.time("x", || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        assert!(ns >= 1_000_000);
        assert!(r.spans().is_empty());
    }

    #[test]
    fn chrome_export_round_trips_through_the_repo_parser() {
        let mut r = Recorder::new("demo", true);
        r.begin("a");
        r.time("b", || ());
        r.end();
        let trace = chrome::parse(&chrome::export(&r.to_trace())).unwrap();
        assert_eq!(trace.spans.len(), 3);
        assert!(trace.check_nesting().is_ok());
        assert!(trace.named("workload:demo").count() == 1);
    }
}
