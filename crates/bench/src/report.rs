//! The one report writer of the `bench_*` binaries.
//!
//! A bench collects its results as [`Row`]s — ordered `(column, value)`
//! pairs — grouped into named tables, plus a `meta` row of units and
//! notes. The same rows render both the stdout table and
//! `BENCH_<bench>.json`, whose envelope is
//! `{"bench": name, "meta": {…}, "<table>": [rows…]}`, one row per line.
//! Floats follow one rule everywhere ([`Value::Float`]).

/// One cell of a report.
#[derive(Debug)]
pub enum Value {
    /// Rendered quoted in JSON, bare on stdout.
    Str(String),
    /// Rendered in decimal.
    Int(i64),
    /// Rendered with at least four significant digits: fixed point for
    /// magnitudes in `[1e-3, 1e6)` (and zero), `{:.3e}` otherwise, and
    /// `null` when not finite.
    Float(f64),
    /// Rendered as `true` / `false`.
    Bool(bool),
    /// A nested object — for grouped `meta` entries such as per-table units.
    Obj(Row),
}

/// Ordered `(column, value)` pairs: one table row, or the `meta` object.
pub type Row = Vec<(&'static str, Value)>;

/// Builds a [`Row`]: `row!["name" => n, "median_s" => t]`.
#[macro_export]
macro_rules! row {
    ($($key:literal => $value:expr),* $(,)?) => {
        vec![$(($key, $crate::report::Value::from($value))),*]
    };
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Float(x)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<Row> for Value {
    fn from(row: Row) -> Self {
        Value::Obj(row)
    }
}

macro_rules! int_from {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(n: $t) -> Self {
                Value::Int(i64::try_from(n).expect("count fits in i64"))
            }
        }
    )*};
}
int_from!(usize, u64);

impl Value {
    /// The JSON text of this value.
    fn json(&self) -> String {
        match self {
            Value::Str(s) => quote(s),
            Value::Obj(row) => object(row),
            other => other.bare(),
        }
    }

    /// The stdout text of this value: strings unquoted.
    fn bare(&self) -> String {
        match self {
            Value::Str(s) => s.clone(),
            Value::Int(n) => n.to_string(),
            Value::Float(x) => float(*x),
            Value::Bool(b) => b.to_string(),
            Value::Obj(row) => object(row),
        }
    }
}

fn float(x: f64) -> String {
    if !x.is_finite() {
        return "null".to_string();
    }
    let mag = if x == 0.0 {
        0
    } else {
        x.abs().log10().floor() as i32
    };
    if (-3..6).contains(&mag) {
        format!("{x:.*}", (3 - mag).max(1) as usize)
    } else {
        format!("{x:.3e}")
    }
}

fn quote(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' | '\\' => out.extend(['\\', c]),
            c if c < ' ' => out += &format!("\\u{:04x}", c as u32),
            c => out.push(c),
        }
    }
    out + "\""
}

fn object(row: &Row) -> String {
    let fields: Vec<String> = row
        .iter()
        .map(|(k, v)| format!("{}: {}", quote(k), v.json()))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// One bench's results: `meta` plus named tables of [`Row`]s.
#[derive(Debug)]
pub struct Report {
    bench: &'static str,
    meta: Row,
    tables: Vec<(&'static str, Vec<Row>)>,
}

impl Report {
    /// An empty report for `BENCH_<bench>.json`.
    pub fn new(bench: &'static str, meta: Row) -> Self {
        Report {
            bench,
            meta,
            tables: Vec::new(),
        }
    }

    /// Appends a table of at least one row; every row must have the
    /// same columns, in order.
    pub fn table(mut self, name: &'static str, rows: Vec<Row>) -> Self {
        let columns = |r: &Row| r.iter().map(|c| c.0).collect::<Vec<_>>();
        assert!(
            !rows.is_empty() && rows.iter().all(|r| columns(r) == columns(&rows[0])),
            "table {name}: needs rows, all with the same columns"
        );
        self.tables.push((name, rows));
        self
    }

    /// The `BENCH_<bench>.json` text.
    fn to_json(&self) -> String {
        let mut out = format!(
            "{{\n  \"bench\": {},\n  \"meta\": {}",
            quote(self.bench),
            object(&self.meta)
        );
        for (name, rows) in &self.tables {
            let rows: Vec<String> = rows.iter().map(|r| format!("    {}", object(r))).collect();
            out += &format!(",\n  {}: [\n{}\n  ]", quote(name), rows.join(",\n"));
        }
        out.push_str("\n}\n");
        out
    }

    /// The stdout text: one table per named table, columns padded to
    /// their widest cell.
    fn to_text(&self) -> String {
        let mut out = String::new();
        for (name, rows) in &self.tables {
            let header = rows[0].iter().map(|c| c.0.to_string()).collect();
            let lines: Vec<Vec<String>> = std::iter::once(header)
                .chain(rows.iter().map(|r| r.iter().map(|c| c.1.bare()).collect()))
                .collect();
            let widths: Vec<usize> = (0..lines[0].len())
                .map(|j| {
                    lines
                        .iter()
                        .map(|l| l[j].chars().count())
                        .fold(0, usize::max)
                })
                .collect();
            out += &format!("[{name}]\n");
            for line in &lines {
                let cells: Vec<String> = (line.iter().zip(&widths))
                    .map(|(cell, &w)| format!("{cell:<w$}"))
                    .collect();
                out += cells.join("  ").trim_end();
                out.push('\n');
            }
            out.push('\n');
        }
        out
    }

    /// Writes `BENCH_<bench>.json` to the working directory, then prints
    /// the stdout table.
    pub fn write(&self) {
        let path = format!("BENCH_{}.json", self.bench);
        std::fs::write(&path, self.to_json()).unwrap_or_else(|e| panic!("write {path}: {e}"));
        print!("{}wrote {path}\n", self.to_text());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_table_report_bytes() {
        let report = Report::new("demo", row!["units" => row!["t" => "s"], "runs" => 9usize])
            .table(
                "entries",
                vec![
                    row!["name" => "a/\"q\"", "median_s" => 4.711e-4, "speedup" => 24.25, "ok" => true],
                    row!["name" => "b", "median_s" => 0.0, "speedup" => f64::NAN, "ok" => false],
                ],
            )
            .table("sweep", vec![row!["ops" => 2000u64, "ops_per_s" => 347197.1, "ms" => 1.5e-3]]);
        assert_eq!(
            report.to_json(),
            r#"{
  "bench": "demo",
  "meta": {"units": {"t": "s"}, "runs": 9},
  "entries": [
    {"name": "a/\"q\"", "median_s": 4.711e-4, "speedup": 24.25, "ok": true},
    {"name": "b", "median_s": 0.000, "speedup": null, "ok": false}
  ],
  "sweep": [
    {"ops": 2000, "ops_per_s": 347197.1, "ms": 0.001500}
  ]
}
"#
        );
        assert_eq!(
            report.to_text(),
            "[entries]
name   median_s  speedup  ok
a/\"q\"  4.711e-4  24.25    true
b      0.000     null     false

[sweep]
ops   ops_per_s  ms
2000  347197.1   0.001500

"
        );
    }
}
