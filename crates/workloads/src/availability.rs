//! Rack/zone availability models compiled to executable fault plans.
//!
//! The executor consumes a literal [`FaultPlan`-shaped] TOML script:
//! *this* disk dies at *this* time. Operators think one level up — "rack
//! A's machines fail together about every eight hours and take two to
//! repair" — in terms of **failure domains** with MTBF/MTTR statistics
//! and correlation. An [`AvailabilityModel`] captures that description
//! and [`AvailabilityModel::compile`] lowers it, with a seeded
//! exponential sampler, into a concrete fault-plan text the simulator
//! (`dmig-sim`) parses and validates like any hand-written plan. One
//! model plus one seed is one reproducible chaos scenario; sweeping the
//! seed sweeps scenarios drawn from the same availability statistics.
//!
//! The model TOML uses the same line-oriented subset as fault plans:
//!
//! ```toml
//! horizon = 10.0          # failures strike in [0, horizon)
//!
//! [[domain]]
//! name = "rack-a"
//! disks = "0-3"           # ranges and lists: "0-3,7"
//! mode = "degrade"        # or "crash"
//! mtbf = 4.0              # mean time between failures (exponential)
//! mttr = 1.5              # mean time to repair (exponential; degrade only)
//! factor = 0.4            # surviving bandwidth fraction while degraded
//! correlated = true       # one sampled event hits every disk at once
//!
//! [[domain]]
//! name = "old-disks"
//! disks = "4,5"
//! mode = "crash"
//! mtbf = 6.0
//!
//! [spares]
//! disks = "8-9"           # replacement pool for crash failures, in order
//!
//! [flaky]
//! probability = 0.02      # passed through to the compiled plan
//! ```
//!
//! This crate deliberately does **not** depend on `dmig-sim`: the
//! compiler emits fault-plan *text*, and the simulator's own
//! `FaultPlan::parse_checked` remains the single validation authority.
//!
//! [`FaultPlan`-shaped]: AvailabilityModel::compile

use std::collections::BTreeSet;
use std::fmt::Write as _;

use rand::{rngs::StdRng, Rng, SeedableRng};

/// How a failure domain fails.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureMode {
    /// Bandwidth collapses to `factor` of nominal, then repairs.
    Degrade,
    /// Crash-stop; pending items redirect to a spare, if one is left.
    Crash,
}

/// One failure domain: a named set of disks sharing failure statistics
/// (a rack, a zone, a batch of ageing spindles).
#[derive(Clone, Debug, PartialEq)]
pub struct Domain {
    /// Human-readable name, echoed into the generated plan as a comment.
    pub name: String,
    /// Member disks (sorted, deduplicated).
    pub disks: Vec<usize>,
    /// Failure mode.
    pub mode: FailureMode,
    /// Mean time between failures (exponential inter-arrival).
    pub mtbf: f64,
    /// Mean time to repair (exponential; only meaningful for degrade).
    pub mttr: f64,
    /// Surviving bandwidth fraction while degraded, in `(0, 1)`.
    pub factor: f64,
    /// `true`: one sampled event strikes every member simultaneously
    /// (correlated rack/zone failure). `false`: members fail
    /// independently, each with its own sample stream.
    pub correlated: bool,
}

/// A parsed availability model.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AvailabilityModel {
    /// Failures are sampled in `[0, horizon)` simulated time.
    pub horizon: f64,
    /// Failure domains, in file order (compilation order).
    pub domains: Vec<Domain>,
    /// Replacement pool for crash failures, consumed in listed order.
    pub spares: Vec<usize>,
    /// Flaky-transfer probability passed through to the plan, if any.
    pub flaky: Option<f64>,
}

/// Errors from parsing or validating an availability model.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum AvailabilityError {
    /// A line could not be parsed (1-based line number).
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// The parsed model is semantically invalid.
    Invalid(String),
}

impl std::fmt::Display for AvailabilityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AvailabilityError::Parse { line, message } => write!(f, "line {line}: {message}"),
            AvailabilityError::Invalid(m) => write!(f, "invalid availability model: {m}"),
        }
    }
}

impl std::error::Error for AvailabilityError {}

/// Safety valve: at most this many failure events are sampled per disk,
/// so a tiny MTBF against a huge horizon cannot explode the plan.
pub const MAX_EVENTS_PER_DISK: usize = 32;

fn parse_err(line: usize, message: String) -> AvailabilityError {
    AvailabilityError::Parse { line, message }
}

/// Cuts a trailing `# comment`, ignoring `#` inside double-quoted strings
/// (so `name = "rack#2"` keeps its full name).
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    let mut prev_backslash = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' if !prev_backslash => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
        prev_backslash = c == '\\' && !prev_backslash;
    }
    line
}

/// Parses `"0-3,7"`-style disk lists: comma-separated indices and
/// inclusive ranges. Returns a sorted, deduplicated list.
fn parse_disk_list(line: usize, raw: &str) -> Result<Vec<usize>, AvailabilityError> {
    let raw = raw.trim().trim_matches('"');
    let mut out = BTreeSet::new();
    for part in raw.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        if let Some((a, b)) = part.split_once('-') {
            let lo: usize = a.trim().parse().map_err(|_| {
                parse_err(line, format!("disks: bad range start `{a}` in `{part}`"))
            })?;
            let hi: usize = b
                .trim()
                .parse()
                .map_err(|_| parse_err(line, format!("disks: bad range end `{b}` in `{part}`")))?;
            if hi < lo {
                return Err(parse_err(line, format!("disks: empty range `{part}`")));
            }
            out.extend(lo..=hi);
        } else {
            out.insert(
                part.parse().map_err(|_| {
                    parse_err(line, format!("disks: expected an index, got `{part}`"))
                })?,
            );
        }
    }
    if out.is_empty() {
        return Err(parse_err(line, "disks: the list is empty".into()));
    }
    Ok(out.into_iter().collect())
}

fn parse_number(line: usize, key: &str, raw: &str) -> Result<f64, AvailabilityError> {
    raw.parse::<f64>()
        .map_err(|_| parse_err(line, format!("{key}: expected a number, got `{raw}`")))
}

/// The section the parser is currently filling.
enum Section {
    Top,
    Domain,
    Spares,
    Flaky,
}

/// A [`Domain`] under construction.
#[derive(Default)]
struct PartialDomain {
    name: Option<String>,
    disks: Option<Vec<usize>>,
    mode: Option<FailureMode>,
    mtbf: Option<f64>,
    mttr: Option<f64>,
    factor: Option<f64>,
    correlated: Option<bool>,
}

impl PartialDomain {
    fn build(self) -> Result<Domain, AvailabilityError> {
        let need = |what: &str| AvailabilityError::Invalid(format!("[[domain]] needs `{what}`"));
        let mode = self.mode.ok_or_else(|| need("mode"))?;
        Ok(Domain {
            name: self.name.ok_or_else(|| need("name"))?,
            disks: self.disks.ok_or_else(|| need("disks"))?,
            mode,
            mtbf: self.mtbf.ok_or_else(|| need("mtbf"))?,
            // Repair statistics and degradation depth only matter for
            // degrade domains; crashes are forever.
            mttr: self.mttr.unwrap_or(1.0),
            factor: self.factor.unwrap_or(0.5),
            correlated: self.correlated.unwrap_or(false),
        })
    }
}

impl AvailabilityModel {
    /// Parses a model from the TOML subset described at module level.
    ///
    /// # Errors
    ///
    /// [`AvailabilityError::Parse`] with a line number on malformed
    /// input; [`AvailabilityError::Invalid`] when a table misses a
    /// required key.
    pub fn parse(text: &str) -> Result<AvailabilityModel, AvailabilityError> {
        let mut model = AvailabilityModel::default();
        let mut section = Section::Top;
        let mut current: Option<PartialDomain> = None;
        let flush = |current: &mut Option<PartialDomain>,
                     model: &mut AvailabilityModel|
         -> Result<(), AvailabilityError> {
            if let Some(d) = current.take() {
                model.domains.push(d.build()?);
            }
            Ok(())
        };
        for (i, raw) in text.lines().enumerate() {
            let lineno = i + 1;
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if let Some(header) = line.strip_prefix("[[").and_then(|s| s.strip_suffix("]]")) {
                flush(&mut current, &mut model)?;
                match header.trim() {
                    "domain" => {
                        section = Section::Domain;
                        current = Some(PartialDomain::default());
                    }
                    other => return Err(parse_err(lineno, format!("unknown table `[[{other}]]`"))),
                }
                continue;
            }
            if let Some(header) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
                flush(&mut current, &mut model)?;
                section = match header.trim() {
                    "spares" => Section::Spares,
                    "flaky" => Section::Flaky,
                    other => return Err(parse_err(lineno, format!("unknown table `[{other}]`"))),
                };
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(parse_err(
                    lineno,
                    format!("expected `key = value`, got `{line}`"),
                ));
            };
            let (key, value) = (key.trim(), value.trim());
            match (&section, key) {
                (Section::Top, "horizon") => {
                    model.horizon = parse_number(lineno, key, value)?;
                }
                (Section::Domain, _) => {
                    let d = current.as_mut().expect("domain section has a partial");
                    match key {
                        "name" => d.name = Some(value.trim_matches('"').to_string()),
                        "disks" => d.disks = Some(parse_disk_list(lineno, value)?),
                        "mode" => {
                            d.mode = Some(match value.trim_matches('"') {
                                "degrade" => FailureMode::Degrade,
                                "crash" => FailureMode::Crash,
                                other => {
                                    return Err(parse_err(
                                        lineno,
                                        format!(
                                            "mode: expected `degrade` or `crash`, got `{other}`"
                                        ),
                                    ))
                                }
                            });
                        }
                        "mtbf" => d.mtbf = Some(parse_number(lineno, key, value)?),
                        "mttr" => d.mttr = Some(parse_number(lineno, key, value)?),
                        "factor" => d.factor = Some(parse_number(lineno, key, value)?),
                        "correlated" => {
                            d.correlated = Some(match value {
                                "true" => true,
                                "false" => false,
                                other => {
                                    return Err(parse_err(
                                        lineno,
                                        format!("correlated: expected true/false, got `{other}`"),
                                    ))
                                }
                            });
                        }
                        other => {
                            return Err(parse_err(
                                lineno,
                                format!("unknown key `{other}` in [[domain]]"),
                            ))
                        }
                    }
                }
                (Section::Spares, "disks") => {
                    model.spares = parse_disk_list(lineno, value)?;
                }
                (Section::Flaky, "probability") => {
                    model.flaky = Some(parse_number(lineno, key, value)?);
                }
                _ => {
                    return Err(parse_err(
                        lineno,
                        format!("unknown key `{key}` in this table"),
                    ));
                }
            }
        }
        flush(&mut current, &mut model)?;
        Ok(model)
    }

    /// Validates the model's internal consistency (ranges and statistics;
    /// disk indices against a concrete cluster are the fault-plan
    /// loader's job).
    ///
    /// # Errors
    ///
    /// [`AvailabilityError::Invalid`] describing the first violation.
    pub fn validate(&self) -> Result<(), AvailabilityError> {
        let bad = |m: String| Err(AvailabilityError::Invalid(m));
        if !(self.horizon > 0.0 && self.horizon.is_finite()) {
            return bad(format!(
                "horizon {} must be a positive number",
                self.horizon
            ));
        }
        if self.domains.is_empty() {
            return bad("the model has no [[domain]] tables".into());
        }
        let spare_set: BTreeSet<usize> = self.spares.iter().copied().collect();
        let mut crash_members = BTreeSet::new();
        for d in &self.domains {
            let ctx = &d.name;
            if !(d.mtbf > 0.0 && d.mtbf.is_finite()) {
                return bad(format!("domain `{ctx}`: mtbf {} must be positive", d.mtbf));
            }
            if !(d.mttr > 0.0 && d.mttr.is_finite()) {
                return bad(format!("domain `{ctx}`: mttr {} must be positive", d.mttr));
            }
            if d.mode == FailureMode::Degrade && !(d.factor > 0.0 && d.factor < 1.0) {
                return bad(format!(
                    "domain `{ctx}`: factor {} must be in (0, 1)",
                    d.factor
                ));
            }
            for &disk in &d.disks {
                if spare_set.contains(&disk) {
                    return bad(format!(
                        "domain `{ctx}`: disk {disk} is also listed as a spare"
                    ));
                }
                if d.mode == FailureMode::Crash && !crash_members.insert(disk) {
                    return bad(format!(
                        "disk {disk} is in two crash domains (it can only die once)"
                    ));
                }
            }
        }
        if let Some(p) = self.flaky {
            if !(0.0..=1.0).contains(&p) || !p.is_finite() {
                return bad(format!("flaky probability {p} must be in [0, 1]"));
            }
        }
        Ok(())
    }

    /// Compiles the model into fault-plan TOML text under `seed`. The
    /// output is deterministic in `(model, seed)` and parses with the
    /// simulator's fault-plan loader; the compiled plan reuses `seed` as
    /// its flaky-coin seed.
    ///
    /// Sampling: failure onsets are exponential inter-arrivals with the
    /// domain's MTBF; degrade repairs are exponential with its MTTR, and
    /// the next onset is sampled after the repair completes. Correlated
    /// domains draw one stream for all members; independent domains draw
    /// one per member. Crash events consume the spare pool in listed
    /// order — once it runs dry, further crashes lose their pending
    /// items, which is exactly the scenario worth simulating.
    ///
    /// # Panics
    ///
    /// Panics if the model fails [`AvailabilityModel::validate`] — call
    /// it first for a recoverable error.
    #[must_use]
    #[allow(clippy::too_many_lines)]
    pub fn compile(&self, seed: u64) -> String {
        self.validate().expect("compile requires a valid model");
        let mut rng = StdRng::seed_from_u64(seed);
        // Exponential sample, floored away from zero so `recover_at >
        // time` always holds in the emitted plan.
        let mut exp = |mean: f64| -> f64 {
            let u: f64 = rng.gen();
            (-mean * (1.0 - u).ln()).max(mean * 1e-6)
        };
        let mut out = String::new();
        let _ = writeln!(out, "# compiled availability model (seed {seed})");
        let _ = writeln!(out, "seed = {seed}");
        let mut crashed: BTreeSet<usize> = BTreeSet::new();
        let mut spares = self.spares.iter().copied();
        for d in &self.domains {
            let _ = writeln!(out, "\n# domain `{}`", d.name);
            // Correlated: one event stream applied to every member.
            // Independent: one stream per member. Either way the stream
            // is a sequence of (onset, repair) pairs inside the horizon.
            let groups: Vec<Vec<usize>> = if d.correlated {
                vec![d.disks.clone()]
            } else {
                d.disks.iter().map(|&x| vec![x]).collect()
            };
            for group in groups {
                let mut t = exp(d.mtbf);
                let mut events = 0;
                while t < self.horizon && events < MAX_EVENTS_PER_DISK {
                    events += 1;
                    match d.mode {
                        FailureMode::Degrade => {
                            let repair = exp(d.mttr);
                            for &disk in &group {
                                if crashed.contains(&disk) {
                                    continue;
                                }
                                let _ = writeln!(out, "[[degrade]]");
                                let _ = writeln!(out, "disk = {disk}");
                                let _ = writeln!(out, "time = {t}");
                                let _ = writeln!(out, "factor = {}", d.factor);
                                let _ = writeln!(out, "recover_at = {}", t + repair);
                            }
                            t += repair + exp(d.mtbf);
                        }
                        FailureMode::Crash => {
                            for &disk in &group {
                                if !crashed.insert(disk) {
                                    continue;
                                }
                                let _ = writeln!(out, "[[crash]]");
                                let _ = writeln!(out, "disk = {disk}");
                                let _ = writeln!(out, "time = {t}");
                                if let Some(spare) = spares.next() {
                                    let _ = writeln!(out, "replacement = {spare}");
                                }
                            }
                            // Crash-stop is forever: this stream is done.
                            break;
                        }
                    }
                }
            }
        }
        if let Some(p) = self.flaky {
            let _ = writeln!(out, "\n[flaky]\nprobability = {p}");
        }
        out
    }

    /// The highest disk index the model references (domains and spares),
    /// or `None` for a model with no disks. A cluster must have at least
    /// `max_disk() + 1` disks to host the compiled plans.
    #[must_use]
    pub fn max_disk(&self) -> Option<usize> {
        self.domains
            .iter()
            .flat_map(|d| d.disks.iter())
            .chain(self.spares.iter())
            .copied()
            .max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MODEL: &str = "\
# two racks and a retirement batch
horizon = 10.0

[[domain]]
name = \"rack-a\"
disks = \"0-2\"
mode = \"degrade\"
mtbf = 4.0
mttr = 1.5
factor = 0.4
correlated = true

[[domain]]
name = \"old-disks\"
disks = \"3,4\"
mode = \"crash\"
mtbf = 6.0

[spares]
disks = \"6-7\"

[flaky]
probability = 0.02
";

    #[test]
    fn parses_the_sample_model() {
        let m = AvailabilityModel::parse(MODEL).unwrap();
        m.validate().unwrap();
        assert_eq!(m.horizon, 10.0);
        assert_eq!(m.domains.len(), 2);
        assert_eq!(m.domains[0].disks, vec![0, 1, 2]);
        assert!(m.domains[0].correlated);
        assert_eq!(m.domains[1].mode, FailureMode::Crash);
        assert_eq!(m.spares, vec![6, 7]);
        assert_eq!(m.flaky, Some(0.02));
        assert_eq!(m.max_disk(), Some(7));
    }

    #[test]
    fn hash_inside_quotes_is_not_a_comment() {
        let m = AvailabilityModel::parse(
            "[[domain]] # racks\nname = \"rack#2\" # the second rack\n\
             disks = \"0-1\"\nmode = \"crash\"\nmtbf = 5.0\n",
        )
        .unwrap();
        assert_eq!(m.domains[0].name, "rack#2");
        assert_eq!(m.domains[0].disks, vec![0, 1]);
    }

    #[test]
    fn disk_lists_support_ranges_and_commas() {
        assert_eq!(
            parse_disk_list(1, "\"0-3,7\"").unwrap(),
            vec![0, 1, 2, 3, 7]
        );
        assert_eq!(parse_disk_list(1, "5").unwrap(), vec![5]);
        assert_eq!(parse_disk_list(1, "3,1,3").unwrap(), vec![1, 3]);
        assert!(parse_disk_list(1, "3-1").is_err());
        assert!(parse_disk_list(1, "x").is_err());
        assert!(parse_disk_list(1, "\"\"").is_err());
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        for (text, needle) in [
            ("[[rack]]\n", "unknown table"),
            ("[mystery]\n", "unknown table"),
            ("horizon = soon\n", "expected a number"),
            ("[[domain]]\nmode = \"explode\"\n", "degrade` or `crash"),
            ("[[domain]]\ncorrelated = maybe\n", "true/false"),
            ("gibberish\n", "key = value"),
        ] {
            let err = AvailabilityModel::parse(text).unwrap_err();
            assert!(
                matches!(err, AvailabilityError::Parse { .. }),
                "{text}: {err}"
            );
            assert!(err.to_string().contains(needle), "{text}: {err}");
        }
        let err = AvailabilityModel::parse("[[domain]]\nname = \"a\"\n").unwrap_err();
        assert!(err.to_string().contains("needs"), "{err}");
    }

    #[test]
    fn validation_rejects_bad_models() {
        let base = AvailabilityModel::parse(MODEL).unwrap();
        let mut no_horizon = base.clone();
        no_horizon.horizon = 0.0;
        assert!(no_horizon.validate().is_err());

        let mut bad_factor = base.clone();
        bad_factor.domains[0].factor = 1.0;
        assert!(bad_factor.validate().is_err());

        let mut spare_overlap = base.clone();
        spare_overlap.spares = vec![0];
        assert!(spare_overlap
            .validate()
            .unwrap_err()
            .to_string()
            .contains("also listed as a spare"));

        let mut double_crash = base.clone();
        double_crash.domains.push(base.domains[1].clone());
        assert!(double_crash
            .validate()
            .unwrap_err()
            .to_string()
            .contains("two crash domains"));

        let mut bad_flaky = base;
        bad_flaky.flaky = Some(2.0);
        assert!(bad_flaky.validate().is_err());
    }

    #[test]
    fn compile_is_deterministic_in_model_and_seed() {
        let m = AvailabilityModel::parse(MODEL).unwrap();
        let a = m.compile(11);
        let b = m.compile(11);
        let c = m.compile(12);
        assert_eq!(a, b, "same seed must compile identically");
        assert_ne!(a, c, "different seeds must differ");
        assert!(a.contains("seed = 11"));
        assert!(a.contains("# domain `rack-a`"));
    }

    #[test]
    fn compiled_plans_respect_the_fault_plan_invariants() {
        let m = AvailabilityModel::parse(MODEL).unwrap();
        for seed in 0..32 {
            let text = m.compile(seed);
            // Structural spot-checks without depending on dmig-sim: every
            // degrade block recovers strictly after onset, every crashed
            // disk appears at most once, and replacements come from the
            // spare pool.
            let mut crashes = Vec::new();
            let lines: Vec<&str> = text.lines().collect();
            for (i, l) in lines.iter().enumerate() {
                if *l == "[[degrade]]" {
                    let time: f64 = lines[i + 2]
                        .strip_prefix("time = ")
                        .unwrap()
                        .parse()
                        .unwrap();
                    let rec: f64 = lines[i + 4]
                        .strip_prefix("recover_at = ")
                        .unwrap()
                        .parse()
                        .unwrap();
                    assert!(rec > time, "seed {seed}: recover {rec} <= onset {time}");
                    assert!((0.0..10.0).contains(&time));
                }
                if *l == "[[crash]]" {
                    let disk: usize = lines[i + 1]
                        .strip_prefix("disk = ")
                        .unwrap()
                        .parse()
                        .unwrap();
                    crashes.push(disk);
                    if let Some(r) = lines
                        .get(i + 3)
                        .and_then(|l| l.strip_prefix("replacement = "))
                    {
                        let r: usize = r.parse().unwrap();
                        assert!(m.spares.contains(&r), "seed {seed}: replacement {r}");
                    }
                }
            }
            let unique: BTreeSet<&usize> = crashes.iter().collect();
            assert_eq!(
                unique.len(),
                crashes.len(),
                "seed {seed}: a disk died twice"
            );
        }
    }

    #[test]
    fn tiny_mtbf_is_bounded_by_the_event_cap() {
        let m = AvailabilityModel::parse(
            "horizon = 1000.0\n[[domain]]\nname = \"x\"\ndisks = \"0\"\nmode = \"degrade\"\nmtbf = 0.001\nmttr = 0.001\nfactor = 0.5\n",
        )
        .unwrap();
        let text = m.compile(1);
        let blocks = text.matches("[[degrade]]").count();
        assert!(blocks <= MAX_EVENTS_PER_DISK, "{blocks} events");
    }
}
