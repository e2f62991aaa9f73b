//! Named metrics, the correctness verdict, and their output: one line
//! per metric for people, then one line of JSON for the runner.

/// One measured value.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How many samples (or ops) the value was computed from.
    pub samples: u64,
    /// For a ratio or derived value: what it was computed from.
    pub base: Option<String>,
}

/// Metrics plus the correctness tally of the runs behind them.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed checks other than per-op failures (audit violations).
    pub problems: Vec<String>,
    /// Remarks that do not make the run incorrect.
    pub notes: Vec<String>,
}

/// Median of `v` (sorts it). 0 for an empty slice.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `q` (0..=1) of sorted `v`; 0 when empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// How many of `n` samples lie above their nearest-rank p99.
pub fn beyond_p99(n: u64) -> u64 {
    n - ((0.99 * n as f64).ceil() as u64).min(n)
}

impl Report {
    pub fn new() -> Report {
        Report::default()
    }

    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.problems.is_empty()
    }

    pub fn metric(
        &mut self,
        name: &str,
        value: f64,
        unit: &'static str,
        samples: u64,
        base: Option<String>,
    ) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
            base,
        });
    }

    pub fn count_ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    pub fn audit(&mut self, verdict: Result<(), String>) {
        if let Err(e) = verdict {
            self.problems.push(e);
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    pub fn merge(&mut self, other: Report) {
        self.metrics.extend(other.metrics);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
        self.notes.extend(other.notes);
    }

    /// Prints one line per metric, then the JSON line.
    pub fn print(&self) {
        for m in &self.metrics {
            let base = m
                .base
                .as_deref()
                .map(|b| format!("; {b}"))
                .unwrap_or_default();
            println!(
                "  {:<34} {:>16.4} {:<6} (n={}{base})",
                m.name, m.value, m.unit, m.samples
            );
        }
        for p in &self.problems {
            println!("  FAILED CHECK: {p}");
        }
        for n in &self.notes {
            println!("  note: {n}");
        }
        println!("{}", self.to_json());
    }

    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let base = m
                    .base
                    .as_deref()
                    .map(|b| format!(",\"base\":{}", quote(b)))
                    .unwrap_or_default();
                format!(
                    "{}:{{\"value\":{},\"unit\":{},\"samples\":{}{base}}}",
                    quote(&m.name),
                    number(m.value),
                    quote(m.unit),
                    m.samples
                )
            })
            .collect();
        let list = |v: &[String]| v.iter().map(|s| quote(s)).collect::<Vec<_>>().join(",");
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}},\"problems\":[{}],\"notes\":[{}]}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(","),
            list(&self.problems),
            list(&self.notes)
        )
    }
}

/// A JSON number; non-finite values (never expected) become 0.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
