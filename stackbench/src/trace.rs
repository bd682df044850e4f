//! In-memory spans for the traced run.
//!
//! Spans are recorded only by the benchmark's own code, around its calls
//! into each layer's public functions; the library is not instrumented.
//! Every span has a name, start and end (nanoseconds since the run's
//! epoch), its parent span, and the request it belongs to. They are kept
//! in memory and written out once, when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// Parent span id; 0 for a root.
    pub parent: u64,
    /// Request (operation) the span belongs to.
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span sink; span ids count up from 1 (0 means "no parent").
pub struct Recorder {
    epoch: Instant,
    next: u64,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Self {
        Recorder {
            epoch,
            next: 1,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch.
    #[inline]
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Converts an instant to epoch nanoseconds.
    #[inline]
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        parent: u64,
        req: u64,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.next;
        self.next += 1;
        self.spans.push(Span {
            id,
            parent,
            req,
            name,
            start_ns,
            end_ns,
        });
        id
    }
}

/// Durations (ns) of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64)
        .collect()
}

/// Self time of each span: its duration minus the part of its interval
/// covered by its children (overlapping children are merged first).
pub fn self_times(spans: &[Span]) -> Vec<(u64, u64)> {
    let mut kids: std::collections::HashMap<u64, Vec<(u64, u64)>> =
        std::collections::HashMap::new();
    for s in spans {
        if s.parent != 0 {
            kids.entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut iv = kids.remove(&s.id).unwrap_or_default();
            iv.sort_unstable();
            let (mut covered, mut cur) = (0u64, None::<(u64, u64)>);
            for (a, b) in iv {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if a >= b {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (s.id, s.dur_ns().saturating_sub(covered))
        })
        .collect()
}

/// JSON array of at most `limit` spans (the file stays bounded; metrics
/// are computed from every span in memory).
pub fn to_json(spans: &[Span], limit: usize) -> String {
    let mut out = String::from("[");
    for (i, s) in spans.iter().take(limit).enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(
            out,
            "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
        );
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_merged_children() {
        let mut r = Recorder::new(Instant::now());
        let root = r.record(0, 1, "root", 0, 100);
        r.record(root, 1, "a", 10, 40);
        r.record(root, 1, "b", 30, 50);
        r.record(root, 1, "c", 90, 120);
        let st = self_times(&r.spans);
        // Children cover [10,50) and [90,100): 50 ns of 100.
        assert_eq!(st[0], (root, 50));
        assert_eq!(durations(&r.spans, "a"), vec![30.0]);
    }
}
