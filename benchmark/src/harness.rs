//! Measurement harness: the estimators that make timings repeat on a shared
//! box, the machine-noise sentinel, in-memory spans, and the metric contract
//! read from `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

// ---------------------------------------------------------------- JSON ----

/// The subset of JSON `BENCHMARK.json` and the summary line use.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing bytes at offset {}", p.i));
        }
        Ok(v)
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.s[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            None => Err("unexpected end".into()),
            Some(b'{') => {
                self.i += 1;
                let mut fields = Vec::new();
                loop {
                    self.ws();
                    if self.eat("}") {
                        return Ok(Json::Obj(fields));
                    }
                    if !fields.is_empty() && !self.eat(",") {
                        return Err(format!("expected ',' at offset {}", self.i));
                    }
                    self.ws();
                    let key = self.string()?;
                    self.ws();
                    if !self.eat(":") {
                        return Err(format!("expected ':' at offset {}", self.i));
                    }
                    fields.push((key, self.value()?));
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                loop {
                    self.ws();
                    if self.eat("]") {
                        return Ok(Json::Arr(items));
                    }
                    if !items.is_empty() && !self.eat(",") {
                        return Err(format!("expected ',' at offset {}", self.i));
                    }
                    items.push(self.value()?);
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(_) if self.eat("true") => Ok(Json::Bool(true)),
            Some(_) if self.eat("false") => Ok(Json::Bool(false)),
            Some(_) if self.eat("null") => Ok(Json::Null),
            Some(_) => {
                let start = self.i;
                while self.i < self.s.len()
                    && matches!(
                        self.s[self.i],
                        b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
                    )
                {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|t| t.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad token at offset {start}"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(format!("expected string at offset {}", self.i));
        }
        let mut out = Vec::new();
        loop {
            match self.s.get(self.i) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    let c = *self.s.get(self.i + 1).ok_or("unterminated escape")?;
                    out.push(match c {
                        b'n' => b'\n',
                        b't' => b'\t',
                        b'"' | b'\\' | b'/' => c,
                        _ => return Err(format!("unsupported escape at offset {}", self.i)),
                    });
                    self.i += 2;
                }
                Some(&c) => {
                    out.push(c);
                    self.i += 1;
                }
            }
        }
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

// ------------------------------------------------------------ contract ----

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Regression bound; end-to-end metrics only.
    pub bound: Option<f64>,
}

/// `BENCHMARK.json`, as far as the binary needs it.
#[derive(Debug, Clone)]
pub struct Contract {
    /// The window the driver passes as `--seconds`.
    pub run_seconds: f64,
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<Declared>,
    pub per_layer: Vec<Declared>,
}

/// Names are letters, digits, `_`, `.`, `-`, start with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

impl Contract {
    pub fn parse(text: &str) -> Result<Contract, String> {
        let root = Json::parse(text)?;
        let list = |key: &str| -> Result<&[Json], String> {
            root.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("BENCHMARK.json: missing list '{key}'"))
        };
        let field = |item: &Json, key: &str| -> Result<String, String> {
            item.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("BENCHMARK.json: entry without '{key}'"))
        };
        let metrics = |key: &str| -> Result<Vec<Declared>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    let name = field(m, "name")?;
                    if !valid_name(&name) {
                        return Err(format!("BENCHMARK.json: bad metric name '{name}'"));
                    }
                    Ok(Declared {
                        name,
                        unit: field(m, "unit")?,
                        higher_is_better: field(m, "better")? == "higher",
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        let workloads = list("workloads")?
            .iter()
            .map(|w| Ok((field(w, "name")?, field(w, "why")?)))
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Contract {
            run_seconds: root
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: missing 'run_seconds'")?,
            workloads,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// The committed contract, compiled into the binary.
    pub fn committed() -> Contract {
        let parsed = Contract::parse(include_str!("../../BENCHMARK.json"));
        // lint: allow(no-panic) -- the file is compiled in; `committed_contract_is_well_formed` parses it
        parsed.expect("the committed BENCHMARK.json parses")
    }

    pub fn declared(&self, trace: bool) -> &[Declared] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

// ------------------------------------------------------------- metrics ----

/// The metrics one run emits, by name. Units come from the contract, so a
/// name and its unit are written down once, in `BENCHMARK.json`.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<String, f64>,
}

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Fails on an undeclared, missing or non-finite metric. `harness.*`
    /// metrics may ride along on an untraced run (the repeat tool reads the
    /// noise sentinel from them); they are printed but not part of the
    /// summary.
    pub fn check(&self, declared: &[Declared]) -> Result<(), String> {
        for d in declared {
            match self.values.get(&d.name) {
                None => return Err(format!("declared metric '{}' was not emitted", d.name)),
                Some(v) if !v.is_finite() => {
                    return Err(format!("metric '{}' is not finite: {v}", d.name))
                }
                Some(_) => {}
            }
        }
        for name in self.values.keys() {
            if !valid_name(name) {
                return Err(format!(
                    "metric name '{name}' has a character outside [A-Za-z0-9_.-]"
                ));
            }
            let known = declared.iter().any(|d| &d.name == name);
            if !known && !name.starts_with("harness.") {
                return Err(format!(
                    "emitted metric '{name}' is not declared in BENCHMARK.json"
                ));
            }
        }
        Ok(())
    }

    /// `metric <name> <value> <unit>` lines, one per emitted metric.
    pub fn human(&self, contract: &Contract) -> String {
        let mut out = String::new();
        for (name, value) in &self.values {
            let unit = contract
                .end_to_end
                .iter()
                .chain(&contract.per_layer)
                .find(|d| &d.name == name)
                .map_or("", |d| d.unit.as_str());
            let _ = writeln!(out, "metric {name} {value} {unit}");
        }
        out
    }

    /// The one-line summary the driver reads: exactly the declared metrics.
    pub fn summary(&self, declared: &[Declared], attempted: u64, failed: u64) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
            failed == 0
        );
        for (i, d) in declared.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let v = self.values.get(&d.name).copied().unwrap_or(f64::NAN);
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                escape(&d.name),
                escape(&d.unit)
            );
        }
        s.push_str("}}");
        s
    }
}

// ---------------------------------------------------------- estimators ----

/// Percentile `p` in `[0, 1]` by linear interpolation between order
/// statistics; `NaN` on an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

pub fn minimum(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

pub fn maximum(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Interquartile range over the median, with the quartiles of Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) — the spread the
/// driver computes.
pub fn iqr_over_median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let quartile = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (quartile(3) - quartile(1)) / median(&v).abs()
}

/// Per-item minimum over rounds. A deterministic operation can only be
/// slowed by interference, never sped up, so the minimum of its repeated
/// wall times is the least-disturbed observation.
#[derive(Debug, Clone)]
pub struct BestOf {
    best: Vec<f64>,
    rounds: usize,
}

impl BestOf {
    pub fn new(items: usize) -> Self {
        Self {
            best: vec![f64::INFINITY; items],
            rounds: 0,
        }
    }

    /// Folds one sample of one item in; `end_round` closes the round.
    pub fn record(&mut self, item: usize, sample: f64) {
        self.best[item] = self.best[item].min(sample);
    }

    pub fn end_round(&mut self) {
        self.rounds += 1;
    }

    /// Folds one round of per-item samples in.
    pub fn round(&mut self, samples: &[f64]) {
        assert_eq!(samples.len(), self.best.len(), "one sample per item");
        for (item, &s) in samples.iter().enumerate() {
            self.record(item, s);
        }
        self.end_round();
    }

    pub fn rounds(&self) -> usize {
        self.rounds
    }

    pub fn best(&self) -> &[f64] {
        &self.best
    }

    /// Percentile across items of the per-item minima.
    pub fn percentile(&self, p: f64) -> f64 {
        percentile(&self.best, p)
    }
}

/// A fixed arithmetic + memory-walk loop, timed every round. Its work never
/// changes, so `(median − min) / min` over a run's samples says how busy the
/// machine was, independent of the library under test.
pub struct Calibration {
    table: Vec<u32>,
    pub samples_ns: Vec<f64>,
}

impl Calibration {
    pub fn new() -> Self {
        // A 1 MiB single-cycle permutation: every load depends on the last.
        let n = 1usize << 18;
        let mut table: Vec<u32> = (0..n as u32).collect();
        let mut x = 0x9E37_79B9u32;
        for i in (1..n).rev() {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            table.swap(i, x as usize % i);
        }
        Self {
            table,
            samples_ns: Vec::new(),
        }
    }

    pub fn sample(&mut self) {
        let t = Instant::now();
        let mut at = 0u32;
        let mut acc = 1u64;
        for _ in 0..200_000 {
            at = self.table[at as usize];
            acc = acc
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(u64::from(at));
        }
        black_box(acc);
        self.samples_ns.push(t.elapsed().as_nanos() as f64);
    }

    pub fn min_ns(&self) -> f64 {
        minimum(&self.samples_ns)
    }

    pub fn spread(&self) -> f64 {
        let min = self.min_ns();
        (median(&self.samples_ns) - min) / min
    }
}

// --------------------------------------------------------------- spans ----

/// One recorded span. `parent == 0` marks a root.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub round: u32,
    /// Query index, or -1 when the span is not about one query.
    pub query: i32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-name totals derived from the spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the time covered by child spans.
    pub self_ns: u64,
}

/// In-memory span recorder. Disabled, `enter`/`exit` are one branch each.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one; returns its id (0 when
    /// tracing is off).
    pub fn enter(&mut self, name: &'static str, round: u32, query: i32) -> u32 {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len() as u32 + 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied().unwrap_or(0),
            name,
            round,
            query,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        id
    }

    pub fn exit(&mut self, id: u32) {
        if id == 0 {
            return;
        }
        let end_ns = self.now_ns();
        assert_eq!(self.stack.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize - 1].end_ns = end_ns;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        span_totals(&self.spans)
    }

    /// The span file: one object with the workload and the span list.
    pub fn to_json(&self, workload: &str) -> String {
        let mut s = format!("{{\"workload\": \"{}\", \"spans\": [\n", escape(workload));
        for (i, sp) in self.spans.iter().enumerate() {
            let _ = write!(
                s,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"round\": {}, \"query\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                sp.id, sp.parent, sp.name, sp.round, sp.query, sp.start_ns, sp.end_ns
            );
            s.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("]}\n");
        s
    }
}

/// Sums spans per name; a span's self time is its duration minus its direct
/// children's durations.
pub fn span_totals(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let mut child_ns = vec![0u64; spans.len() + 1];
    for sp in spans {
        child_ns[sp.parent as usize] += sp.end_ns - sp.start_ns;
    }
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for sp in spans {
        let dur = sp.end_ns - sp.start_ns;
        let t = out.entry(sp.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(child_ns[sp.id as usize]);
    }
    out
}

// --------------------------------------------------------------- tests ----

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_of_rounds_ignores_injected_slow_rounds() {
        // Ten items whose true cost is 100, 110, ...; rounds 2 and 5 are hit
        // by interference that triples some items.
        let truth: Vec<f64> = (0..10).map(|i| 100.0 + 10.0 * f64::from(i)).collect();
        let mut best = BestOf::new(truth.len());
        let mut all = Vec::new();
        for round in 0..8 {
            let samples: Vec<f64> = truth
                .iter()
                .enumerate()
                .map(|(i, &t)| {
                    let slow = (round == 2 || round == 5) && i % 2 == 0;
                    // Every sample carries a little positive jitter.
                    t * if slow { 3.0 } else { 1.0 } + f64::from((round * 7 + i as u32) % 3)
                })
                .collect();
            all.extend_from_slice(&samples);
            best.round(&samples);
        }
        assert_eq!(best.rounds(), 8);
        let p50 = best.percentile(0.5);
        let want = percentile(&truth, 0.5);
        assert!(
            (p50 - want).abs() <= 2.0,
            "best-of p50 {p50} vs truth {want}"
        );
        // The all-samples p90 is dragged up by the slow rounds; best-of is not.
        assert!(percentile(&all, 0.9) > 1.5 * best.percentile(0.9));
        assert!((best.percentile(0.9) - percentile(&truth, 0.9)).abs() <= 2.0);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(percentile(&v, 0.5), 2.5);
        assert!((percentile(&v, 0.9) - 3.7).abs() < 1e-12);
        assert!(percentile(&[], 0.5).is_nan());
        assert_eq!(minimum(&v), 1.0);
        assert_eq!(maximum(&v), 4.0);
        assert_eq!(mean(&v), 2.5);
    }

    #[test]
    fn spread_matches_python_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_over_median(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([10, 11, 12], n=4) == [10.0, 11.0, 12.0]
        assert!((iqr_over_median(&[12.0, 10.0, 11.0]) - 2.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn span_self_time_subtracts_children() {
        let spans = vec![
            Span {
                id: 1,
                parent: 0,
                name: "round",
                round: 0,
                query: -1,
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                id: 2,
                parent: 1,
                name: "query",
                round: 0,
                query: 0,
                start_ns: 10,
                end_ns: 40,
            },
            Span {
                id: 3,
                parent: 1,
                name: "query",
                round: 0,
                query: 1,
                start_ns: 50,
                end_ns: 90,
            },
            Span {
                id: 4,
                parent: 3,
                name: "page",
                round: 0,
                query: 1,
                start_ns: 60,
                end_ns: 70,
            },
        ];
        let t = span_totals(&spans);
        assert_eq!(
            t["round"],
            SpanTotals {
                count: 1,
                total_ns: 100,
                self_ns: 30
            }
        );
        assert_eq!(
            t["query"],
            SpanTotals {
                count: 2,
                total_ns: 70,
                self_ns: 60
            }
        );
        assert_eq!(
            t["page"],
            SpanTotals {
                count: 1,
                total_ns: 10,
                self_ns: 10
            }
        );
    }

    #[test]
    fn tracer_nests_and_is_silent_when_off() {
        let mut off = Tracer::new(false);
        let id = off.enter("x", 0, -1);
        off.exit(id);
        assert!(off.spans().is_empty());

        let mut on = Tracer::new(true);
        let outer = on.enter("outer", 1, -1);
        let inner = on.enter("inner", 1, 7);
        on.exit(inner);
        on.exit(outer);
        assert_eq!(on.spans()[1].parent, outer);
        assert_eq!(on.spans()[1].query, 7);
        let parsed = Json::parse(&on.to_json("w")).expect("span file is JSON");
        assert_eq!(
            parsed
                .get("spans")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(2)
        );
    }

    #[test]
    fn summary_has_exactly_the_contract_keys() {
        let declared = vec![
            Declared {
                name: "setup_s".into(),
                unit: "s".into(),
                higher_is_better: false,
                bound: Some(0.25),
            },
            Declared {
                name: "ingest_ops_per_s".into(),
                unit: "1/s".into(),
                higher_is_better: true,
                bound: Some(0.1),
            },
        ];
        let mut m = Metrics::default();
        m.put("setup_s", 1.25);
        m.put("ingest_ops_per_s", 500.5);
        m.put("harness.calib_spread", 0.01);
        m.check(&declared).expect("harness.* may ride along");
        let line = m.summary(&declared, 7, 0);
        assert!(!line.contains('\n'));
        let Json::Obj(fields) = Json::parse(&line).expect("summary is JSON") else {
            panic!("summary is an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(fields[0].1, Json::Bool(true));
        let Json::Obj(metrics) = &fields[3].1 else {
            panic!("metrics is an object")
        };
        assert_eq!(
            metrics.len(),
            2,
            "undeclared harness.* stays out of the summary"
        );
        assert_eq!(metrics[0].1.get("value"), Some(&Json::Num(1.25)));
        assert_eq!(metrics[1].1.get("unit"), Some(&Json::Str("1/s".into())));
        assert!(m
            .summary(&declared, 7, 2)
            .starts_with("{\"correct\": false"));
    }

    #[test]
    fn metric_check_rejects_undeclared_missing_and_bad_names() {
        let declared = vec![Declared {
            name: "a.b".into(),
            unit: "ns".into(),
            higher_is_better: false,
            bound: None,
        }];
        let mut m = Metrics::default();
        assert!(m.check(&declared).unwrap_err().contains("not emitted"));
        m.put("a.b", 1.0);
        m.check(&declared).expect("complete");
        m.put("extra", 1.0);
        assert!(m.check(&declared).unwrap_err().contains("not declared"));
        let mut bad = Metrics::default();
        bad.put("a.b", f64::NAN);
        assert!(bad.check(&declared).unwrap_err().contains("not finite"));
        assert!(valid_name("pfv.exact_ns_per_entry") && valid_name("9x-y"));
        assert!(!valid_name("") && !valid_name(".x") && !valid_name("a b") && !valid_name("a/b"));
    }

    #[test]
    fn committed_contract_is_well_formed() {
        let c = Contract::committed();
        assert_eq!(c.workloads.len(), 4);
        assert!(c.run_seconds >= 1.0 && c.run_seconds <= 60.0);
        assert!(c
            .end_to_end
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
        for d in &c.end_to_end {
            let b = d.bound.expect("every end-to-end metric has a bound");
            assert!(b > 0.0 && b <= 0.25, "{}: bound {b}", d.name);
        }
        let mut names: Vec<&str> = c
            .end_to_end
            .iter()
            .chain(&c.per_layer)
            .map(|d| d.name.as_str())
            .collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "metric names are used once");
    }

    #[test]
    fn calibration_is_positive_and_spread_is_small_number() {
        let mut c = Calibration::new();
        for _ in 0..3 {
            c.sample();
        }
        assert!(c.min_ns() > 0.0);
        assert!(c.spread() >= 0.0);
    }
}
