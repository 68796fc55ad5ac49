//! In-memory spans of the traced pass, written out when the run ends.

use std::io::Write;
use std::time::Instant;

/// One timed interval: a name, start and end in ns since the trace
/// epoch, the index of the span that caused it, and the job it served.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub job: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Nanoseconds since `epoch`.
pub fn since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// The spans of a run, all relative to one epoch.
pub struct Trace {
    pub epoch: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Self {
        Trace {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now(&self) -> u64 {
        since(self.epoch)
    }

    /// Append a span; returns its index for use as a parent.
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Append one job's spans, whose parents index into `spans` itself.
    pub fn extend_job(&mut self, spans: &[Span]) {
        let base = self.spans.len();
        self.spans.extend(spans.iter().map(|s| Span {
            parent: s.parent.map(|p| p + base),
            ..s.clone()
        }));
    }

    /// Durations of every span named `name`.
    pub fn durations<'a>(&'a self, name: &'a str) -> impl Iterator<Item = u64> + 'a {
        self.spans
            .iter()
            .filter(move |s| s.name == name)
            .map(Span::duration_ns)
    }

    /// Write every span as one CSV row.
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,name,start_ns,end_ns,parent,job")?;
        let opt = |v: Option<usize>| v.map_or(String::new(), |v| v.to_string());
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{id},{},{},{},{},{}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                opt(s.job)
            )?;
        }
        out.flush()
    }
}
