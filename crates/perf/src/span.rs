//! In-memory spans for the traced run.
//!
//! One span wraps each call from the benchmark into a layer's public
//! function: name, start, end, the span that caused it, and the
//! repetition it belongs to. Spans stay in memory while measuring and are
//! written out once at the end; a layer's self time is its span minus
//! what its direct children cover. Tracing *inside* the program is a
//! later change — these spans live entirely in the benchmark's own files.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub rep: u32,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under whichever span is currently open.
    pub fn enter(&mut self, name: &'static str, rep: u32) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            rep,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Close the innermost span, which must be `id`; returns its duration.
    pub fn exit(&mut self, id: u32) -> u64 {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost-first");
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.duration_ns()
    }

    /// Run `f` inside a span; returns its result and the span's duration
    /// in nanoseconds.
    pub fn time<R>(&mut self, name: &'static str, rep: u32, f: impl FnOnce() -> R) -> (R, u64) {
        let id = self.enter(name, rep);
        let out = f();
        (out, self.exit(id))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span, its duration minus the part its direct children cover.
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                let slot = &mut own[parent as usize];
                *slot = slot.saturating_sub(span.duration_ns());
            }
        }
        own
    }

    /// One JSON object per line: a header carrying `provenance`, then
    /// every span with its self time.
    pub fn write_jsonl(&self, path: &Path, provenance: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"provenance\":{provenance}}}")?;
        for (id, (span, own)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"rep\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}}}",
                span.name, span.rep, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tracer with hand-set clocks, so self time is checked exactly.
    fn fixed(spans: &[(&'static str, Option<u32>, u64, u64)]) -> Tracer {
        let mut t = Tracer::new();
        for &(name, parent, start_ns, end_ns) in spans {
            t.spans.push(Span {
                name,
                rep: 0,
                parent,
                start_ns,
                end_ns,
            });
        }
        t
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let t = fixed(&[
            ("replay", None, 0, 100),
            ("load", Some(0), 10, 40),
            ("engine", Some(0), 40, 90),
            ("sink", Some(2), 50, 60),
        ]);
        // replay: 100 - (30 + 50); engine: 50 - 10; the grandchild does
        // not count against the root twice.
        assert_eq!(t.self_times(), vec![20, 30, 40, 10]);
    }

    #[test]
    fn enter_and_exit_nest_and_record_parents() {
        let mut t = Tracer::new();
        let outer = t.enter("outer", 3);
        let ((), inner_ns) = t.time("inner", 3, || std::hint::black_box(()));
        let outer_ns = t.exit(outer);
        assert_eq!(t.spans()[1].parent, Some(outer));
        assert_eq!(t.spans()[0].parent, None);
        assert_eq!(t.spans()[1].rep, 3);
        assert!(outer_ns >= inner_ns);
        let own = t.self_times();
        assert_eq!(own[0], outer_ns - inner_ns);
    }

    #[test]
    fn jsonl_has_a_header_and_one_line_per_span() {
        let t = fixed(&[("a", None, 0, 5), ("b", Some(0), 1, 3)]);
        let dir = crate::scratch::Scratch::new("span-test").unwrap();
        let path = dir.path().join("spans.jsonl");
        t.write_jsonl(&path, "{\"seed\":1}").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "{\"provenance\":{\"seed\":1}}");
        assert!(lines[1].contains("\"name\":\"a\"") && lines[1].contains("\"self_ns\":3"));
        assert!(lines[2].contains("\"parent\":0"));
    }
}
