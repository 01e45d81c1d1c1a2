//! Deterministic fault plans: seeded failure injection for the executor.
//!
//! A [`FaultPlan`] describes everything that will go wrong during a run,
//! up front and reproducibly — the paper's §I motivates exactly these
//! disturbances (bandwidth shifting under live traffic, disks failing and
//! recovering mid-reconfiguration):
//!
//! * **crash-stop** — a disk dies at a given time and never comes back;
//!   pending items touching it are redirected to an optional replacement
//!   disk, or reported lost;
//! * **degradation** — a disk's bandwidth collapses to a fraction of its
//!   initial value at one time and optionally recovers at a later one;
//! * **flaky transfers** — every transfer attempt independently fails
//!   with a fixed probability, decided by a seeded hash of
//!   `(seed, item, attempt)` so the same plan always fails the same
//!   attempts.
//!
//! Plans parse from a small TOML subset (`key = value` lines, `[flaky]`,
//! `[[crash]]` and `[[degrade]]` tables — the same shape as
//! `ci-rules.toml`) and compile to a timeline of events sorted by
//! `(time, kind, disk)`, so same-timestamp events apply in one canonical
//! order no matter how the file lists them.

use dmig_graph::NodeId;

/// A crash-stop disk failure: the disk's bandwidth drops to zero at
/// `time` and never recovers.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CrashFault {
    /// The disk that dies.
    pub disk: NodeId,
    /// When it dies (simulated time).
    pub time: f64,
    /// Optional replacement: pending items are redirected here at the
    /// next replan. With `None`, pending items on this disk are lost.
    pub replacement: Option<NodeId>,
}

/// A transient bandwidth collapse with optional recovery.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DegradeFault {
    /// The disk that degrades.
    pub disk: NodeId,
    /// When the collapse starts (simulated time).
    pub time: f64,
    /// Multiplier applied to the disk's *initial* bandwidth while
    /// degraded (must be in `(0, 1)`; a total failure is a crash).
    pub factor: f64,
    /// When the disk returns to its initial bandwidth, if ever.
    pub recover_at: Option<f64>,
}

/// Per-transfer flaky failures: each attempt fails independently with
/// probability `probability`, decided by the plan seed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FlakySpec {
    /// Failure probability per transfer attempt, in `[0, 1]`.
    pub probability: f64,
}

/// A complete, deterministic fault scenario.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed for the flaky-transfer coin (and any future randomized fault).
    pub seed: u64,
    /// Crash-stop failures.
    pub crashes: Vec<CrashFault>,
    /// Bandwidth degradations.
    pub degradations: Vec<DegradeFault>,
    /// Flaky-transfer behaviour, if any.
    pub flaky: Option<FlakySpec>,
}

/// What one compiled timeline event does.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultAction {
    /// Set the disk's bandwidth to `initial × factor` (1.0 = recovery).
    SetBandwidthFactor(NodeId, f64),
    /// Crash-stop the disk (bandwidth 0 forever; redirect to the
    /// replacement at the next replan).
    Crash(NodeId, Option<NodeId>),
}

/// One event of the compiled fault timeline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultEvent {
    /// When the event fires (simulated time).
    pub time: f64,
    /// What it does.
    pub action: FaultAction,
}

/// Errors from parsing or validating a fault plan.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultPlanError {
    /// A line could not be parsed.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// The parsed plan is semantically invalid for the given cluster.
    Invalid(String),
}

impl std::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultPlanError::Parse { line, message } => write!(f, "line {line}: {message}"),
            FaultPlanError::Invalid(m) => write!(f, "invalid fault plan: {m}"),
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// The table a semantic violation sits in: the index of its `[[crash]]`
/// or `[[degrade]]` table, or `[flaky]`.
enum Table {
    Crash(usize),
    Degrade(usize),
    Flaky,
}

/// The 1-based header line of every table a parse read, in plan order
/// (for `[flaky]`, the last one, whose values the plan keeps).
#[derive(Default)]
struct HeaderLines {
    crash: Vec<usize>,
    degrade: Vec<usize>,
    flaky: usize,
}

/// The section the parser is currently filling.
enum Section {
    Top,
    Crash,
    Degrade,
    Flaky,
}

fn parse_number(line: usize, key: &str, raw: &str) -> Result<f64, FaultPlanError> {
    raw.parse::<f64>().map_err(|_| FaultPlanError::Parse {
        line,
        message: format!("{key}: expected a number, got `{raw}`"),
    })
}

fn parse_disk(line: usize, key: &str, raw: &str) -> Result<NodeId, FaultPlanError> {
    raw.parse::<usize>()
        .map(NodeId::new)
        .map_err(|_| FaultPlanError::Parse {
            line,
            message: format!("{key}: expected a disk index, got `{raw}`"),
        })
}

impl FaultPlan {
    /// Parses a plan from the TOML subset described at module level.
    ///
    /// # Errors
    ///
    /// Returns [`FaultPlanError::Parse`] with a line number on malformed
    /// input, and [`FaultPlanError::Invalid`] when a table is missing a
    /// required key or carries an out-of-range value.
    pub fn parse(text: &str) -> Result<FaultPlan, FaultPlanError> {
        Self::parse_tables(text).map(|(plan, _)| plan)
    }

    /// [`FaultPlan::parse`], plus the header line of every table it read.
    fn parse_tables(text: &str) -> Result<(FaultPlan, HeaderLines), FaultPlanError> {
        let mut plan = FaultPlan::default();
        let mut lines = HeaderLines::default();
        let mut section = Section::Top;
        // Partially built current table; flushed on section change / EOF.
        let mut disk: Option<NodeId> = None;
        let mut time: Option<f64> = None;
        let mut replacement: Option<NodeId> = None;
        let mut factor: Option<f64> = None;
        let mut recover_at: Option<f64> = None;
        let mut probability: Option<f64> = None;
        let flush = |section: &Section,
                     plan: &mut FaultPlan,
                     disk: &mut Option<NodeId>,
                     time: &mut Option<f64>,
                     replacement: &mut Option<NodeId>,
                     factor: &mut Option<f64>,
                     recover_at: &mut Option<f64>,
                     probability: &mut Option<f64>|
         -> Result<(), FaultPlanError> {
            match section {
                Section::Top => {}
                Section::Crash => {
                    plan.crashes.push(CrashFault {
                        disk: disk.take().ok_or_else(|| {
                            FaultPlanError::Invalid("[[crash]] needs `disk`".into())
                        })?,
                        time: time.take().ok_or_else(|| {
                            FaultPlanError::Invalid("[[crash]] needs `time`".into())
                        })?,
                        replacement: replacement.take(),
                    });
                }
                Section::Degrade => {
                    plan.degradations.push(DegradeFault {
                        disk: disk.take().ok_or_else(|| {
                            FaultPlanError::Invalid("[[degrade]] needs `disk`".into())
                        })?,
                        time: time.take().ok_or_else(|| {
                            FaultPlanError::Invalid("[[degrade]] needs `time`".into())
                        })?,
                        factor: factor.take().ok_or_else(|| {
                            FaultPlanError::Invalid("[[degrade]] needs `factor`".into())
                        })?,
                        recover_at: recover_at.take(),
                    });
                }
                Section::Flaky => {
                    plan.flaky = Some(FlakySpec {
                        probability: probability.take().ok_or_else(|| {
                            FaultPlanError::Invalid("[flaky] needs `probability`".into())
                        })?,
                    });
                }
            }
            *disk = None;
            *time = None;
            *replacement = None;
            *factor = None;
            *recover_at = None;
            *probability = None;
            Ok(())
        };

        for (i, raw) in text.lines().enumerate() {
            let lineno = i + 1;
            let line = raw.split('#').next().unwrap_or_default().trim();
            if line.is_empty() {
                continue;
            }
            // `[[name]]` opens an array table, `[name]` a plain one.
            let header = line
                .strip_prefix("[[")
                .and_then(|s| s.strip_suffix("]]"))
                .map(|h| (h.trim(), true))
                .or_else(|| {
                    line.strip_prefix('[')
                        .and_then(|s| s.strip_suffix(']'))
                        .map(|h| (h.trim(), false))
                });
            if let Some((name, array)) = header {
                flush(
                    &section,
                    &mut plan,
                    &mut disk,
                    &mut time,
                    &mut replacement,
                    &mut factor,
                    &mut recover_at,
                    &mut probability,
                )?;
                section = match (name, array) {
                    ("crash", true) => {
                        lines.crash.push(lineno);
                        Section::Crash
                    }
                    ("degrade", true) => {
                        lines.degrade.push(lineno);
                        Section::Degrade
                    }
                    ("flaky", false) => {
                        lines.flaky = lineno;
                        Section::Flaky
                    }
                    (other, array) => {
                        let table = if array {
                            format!("[[{other}]]")
                        } else {
                            format!("[{other}]")
                        };
                        return Err(FaultPlanError::Parse {
                            line: lineno,
                            message: format!("unknown table `{table}`"),
                        });
                    }
                };
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(FaultPlanError::Parse {
                    line: lineno,
                    message: format!("expected `key = value`, got `{line}`"),
                });
            };
            let (key, value) = (key.trim(), value.trim());
            match (&section, key) {
                (Section::Top, "seed") => {
                    plan.seed = value.parse().map_err(|_| FaultPlanError::Parse {
                        line: lineno,
                        message: format!("seed: expected an integer, got `{value}`"),
                    })?;
                }
                (Section::Crash | Section::Degrade, "disk") => {
                    disk = Some(parse_disk(lineno, key, value)?);
                }
                (Section::Crash | Section::Degrade, "time") => {
                    time = Some(parse_number(lineno, key, value)?);
                }
                (Section::Crash, "replacement") => {
                    replacement = Some(parse_disk(lineno, key, value)?);
                }
                (Section::Degrade, "factor") => {
                    factor = Some(parse_number(lineno, key, value)?);
                }
                (Section::Degrade, "recover_at") => {
                    recover_at = Some(parse_number(lineno, key, value)?);
                }
                (Section::Flaky, "probability") => {
                    probability = Some(parse_number(lineno, key, value)?);
                }
                _ => {
                    return Err(FaultPlanError::Parse {
                        line: lineno,
                        message: format!("unknown key `{key}` in this table"),
                    });
                }
            }
        }
        flush(
            &section,
            &mut plan,
            &mut disk,
            &mut time,
            &mut replacement,
            &mut factor,
            &mut recover_at,
            &mut probability,
        )?;
        Ok((plan, lines))
    }

    /// Parses *and* validates against a cluster of `num_disks` disks,
    /// attributing every semantic error to the 1-based line of the table
    /// that caused it — the error a CLI should show when a fault plan
    /// references disks the instance does not have.
    ///
    /// Accepts exactly the plans that [`FaultPlan::parse`] followed by
    /// [`FaultPlan::validate`] accepts (both run one checker, and a unit
    /// test pins it); only the error presentation differs.
    ///
    /// # Errors
    ///
    /// Returns [`FaultPlanError::Parse`] with the offending line for both
    /// malformed input and semantic violations.
    pub fn parse_checked(text: &str, num_disks: usize) -> Result<FaultPlan, FaultPlanError> {
        let (plan, lines) = Self::parse_tables(text)?;
        plan.check(num_disks)
            .map_err(|(table, message)| FaultPlanError::Parse {
                line: match table {
                    Table::Crash(i) => lines.crash[i],
                    Table::Degrade(i) => lines.degrade[i],
                    Table::Flaky => lines.flaky,
                },
                message,
            })?;
        Ok(plan)
    }

    /// Validates the plan against a cluster of `num_disks` disks.
    ///
    /// # Errors
    ///
    /// Returns [`FaultPlanError::Invalid`] for out-of-range disks,
    /// non-finite or negative times, degradation factors outside `(0, 1)`,
    /// recovery before onset, crash replacements that are themselves
    /// crashed, repeat crashes of one disk, or a flaky probability outside
    /// `[0, 1]`.
    pub fn validate(&self, num_disks: usize) -> Result<(), FaultPlanError> {
        self.check(num_disks)
            .map_err(|(_, message)| FaultPlanError::Invalid(message))
    }

    /// The one semantic checker behind [`FaultPlan::validate`] and
    /// [`FaultPlan::parse_checked`]: the first violation, and the table
    /// that holds it.
    fn check(&self, num_disks: usize) -> Result<(), (Table, String)> {
        let check_disk = |what: &str, d: NodeId| {
            if d.index() >= num_disks {
                return Err(format!(
                    "{what} disk {d} out of range (cluster has {num_disks} disks)"
                ));
            }
            Ok(())
        };
        let check_time = |what: &str, t: f64| {
            if !t.is_finite() || t < 0.0 {
                return Err(format!("{what} time {t} invalid"));
            }
            Ok(())
        };
        let mut crashed = vec![false; num_disks];
        for (i, c) in self.crashes.iter().enumerate() {
            let at = |message| (Table::Crash(i), message);
            check_disk("crash", c.disk).map_err(at)?;
            check_time("crash", c.time).map_err(at)?;
            if crashed[c.disk.index()] {
                return Err(at(format!("disk {} crashes twice", c.disk)));
            }
            crashed[c.disk.index()] = true;
        }
        for (i, c) in self.crashes.iter().enumerate() {
            let at = |message| (Table::Crash(i), message);
            if let Some(r) = c.replacement {
                check_disk("replacement", r).map_err(at)?;
                if crashed[r.index()] {
                    return Err(at(format!(
                        "replacement {r} for disk {} is itself crashed",
                        c.disk
                    )));
                }
            }
        }
        for (i, d) in self.degradations.iter().enumerate() {
            let at = |message| (Table::Degrade(i), message);
            check_disk("degrade", d.disk).map_err(at)?;
            check_time("degrade", d.time).map_err(at)?;
            if !(d.factor > 0.0 && d.factor < 1.0 && d.factor.is_finite()) {
                return Err(at(format!(
                    "degrade factor {} must be in (0, 1) — a total failure is a crash",
                    d.factor
                )));
            }
            if let Some(r) = d.recover_at {
                check_time("recover_at", r).map_err(at)?;
                if r <= d.time {
                    return Err(at(format!("recover_at {r} is not after onset {}", d.time)));
                }
            }
        }
        if let Some(f) = &self.flaky {
            if !(0.0..=1.0).contains(&f.probability) || !f.probability.is_finite() {
                return Err((
                    Table::Flaky,
                    format!("flaky probability {} must be in [0, 1]", f.probability),
                ));
            }
        }
        Ok(())
    }

    /// Compiles the plan to a timeline sorted by `(time, kind, disk)` —
    /// bandwidth changes before crashes at equal timestamps — so the
    /// apply order is canonical regardless of declaration order.
    #[must_use]
    pub fn timeline(&self) -> Vec<FaultEvent> {
        let mut events = Vec::new();
        for d in &self.degradations {
            events.push(FaultEvent {
                time: d.time,
                action: FaultAction::SetBandwidthFactor(d.disk, d.factor),
            });
            if let Some(r) = d.recover_at {
                events.push(FaultEvent {
                    time: r,
                    action: FaultAction::SetBandwidthFactor(d.disk, 1.0),
                });
            }
        }
        for c in &self.crashes {
            events.push(FaultEvent {
                time: c.time,
                action: FaultAction::Crash(c.disk, c.replacement),
            });
        }
        events.sort_by(|a, b| {
            let key = |e: &FaultEvent| match e.action {
                FaultAction::SetBandwidthFactor(d, f) => (e.time, 0u8, d.index(), f),
                FaultAction::Crash(d, _) => (e.time, 1u8, d.index(), 0.0),
            };
            let (ta, ka, da, fa) = key(a);
            let (tb, kb, db, fb) = key(b);
            ta.total_cmp(&tb)
                .then(ka.cmp(&kb))
                .then(da.cmp(&db))
                .then(fa.total_cmp(&fb))
        });
        events
    }

    /// Whether the plan injects nothing at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty()
            && self.degradations.is_empty()
            && self.flaky.map_or(true, |f| f.probability == 0.0)
    }
}

/// The seeded flaky-transfer coin: attempt `attempt` of item `item` fails
/// iff a splitmix64-style hash of `(seed, item, attempt)` lands below
/// `probability`. Pure and deterministic — the executor's reproducibility
/// guarantee rests on it.
#[must_use]
pub fn attempt_fails(seed: u64, item: u64, attempt: u64, probability: f64) -> bool {
    if probability <= 0.0 {
        return false;
    }
    if probability >= 1.0 {
        return true;
    }
    let mut x = seed
        ^ item.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ attempt.wrapping_mul(0xD1B5_4A32_D192_ED03);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    // Top 53 bits -> uniform in [0, 1) with exact f64 arithmetic.
    let unit = (x >> 11) as f64 / (1u64 << 53) as f64;
    unit < probability
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# everything that will go wrong, up front
seed = 7

[[degrade]]
disk = 1
time = 2.0
factor = 0.25
recover_at = 6.0

[[crash]]
disk = 3
time = 4.0
replacement = 5

[[crash]]
disk = 0
time = 9.0

[flaky]
probability = 0.05
";

    #[test]
    fn parses_the_sample_plan() {
        let plan = FaultPlan::parse(SAMPLE).unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.crashes.len(), 2);
        assert_eq!(plan.crashes[0].replacement, Some(NodeId::new(5)));
        assert_eq!(plan.crashes[1].replacement, None);
        assert_eq!(plan.degradations.len(), 1);
        assert_eq!(plan.degradations[0].recover_at, Some(6.0));
        assert_eq!(plan.flaky, Some(FlakySpec { probability: 0.05 }));
        plan.validate(6).unwrap();
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        for (text, needle) in [
            ("[[explode]]\n", "unknown table"),
            ("[mystery]\n", "unknown table"),
            ("seed = many\n", "expected an integer"),
            ("[[crash]]\ndisk = x\n", "disk index"),
            ("[[crash]]\nwhat = 1\n", "unknown key"),
            ("gibberish\n", "key = value"),
        ] {
            let err = FaultPlan::parse(text).unwrap_err();
            assert!(matches!(err, FaultPlanError::Parse { .. }), "{text}: {err}");
            assert!(err.to_string().contains(needle), "{text}: {err}");
        }
        // Missing required keys are caught at flush.
        let err = FaultPlan::parse("[[crash]]\ntime = 1\n").unwrap_err();
        assert!(err.to_string().contains("needs `disk`"), "{err}");
    }

    #[test]
    fn validation_rejects_bad_plans() {
        let cases: &[(FaultPlan, &str)] = &[
            (
                FaultPlan {
                    crashes: vec![CrashFault {
                        disk: NodeId::new(9),
                        time: 0.0,
                        replacement: None,
                    }],
                    ..FaultPlan::default()
                },
                "out of range",
            ),
            (
                FaultPlan {
                    crashes: vec![
                        CrashFault {
                            disk: NodeId::new(0),
                            time: 0.0,
                            replacement: Some(NodeId::new(1)),
                        },
                        CrashFault {
                            disk: NodeId::new(1),
                            time: 1.0,
                            replacement: None,
                        },
                    ],
                    ..FaultPlan::default()
                },
                "itself crashed",
            ),
            (
                FaultPlan {
                    degradations: vec![DegradeFault {
                        disk: NodeId::new(0),
                        time: 0.0,
                        factor: 0.0,
                        recover_at: None,
                    }],
                    ..FaultPlan::default()
                },
                "total failure is a crash",
            ),
            (
                FaultPlan {
                    degradations: vec![DegradeFault {
                        disk: NodeId::new(0),
                        time: 5.0,
                        factor: 0.5,
                        recover_at: Some(5.0),
                    }],
                    ..FaultPlan::default()
                },
                "not after onset",
            ),
            (
                FaultPlan {
                    flaky: Some(FlakySpec { probability: 1.5 }),
                    ..FaultPlan::default()
                },
                "[0, 1]",
            ),
        ];
        for (plan, needle) in cases {
            let err = plan.validate(4).unwrap_err();
            assert!(err.to_string().contains(needle), "{err}");
        }
    }

    #[test]
    fn parse_checked_attributes_semantic_errors_to_lines() {
        // disk 9 is out of range for a 6-disk cluster; the error points
        // at the [[crash]] header that declared it (line 5).
        let text = "\
seed = 1

[[degrade]]
disk = 1
time = 1.0
factor = 0.5

[[crash]]
disk = 9
time = 2.0
";
        let err = FaultPlan::parse_checked(text, 6).unwrap_err();
        assert_eq!(
            err,
            FaultPlanError::Parse {
                line: 8,
                message: "crash disk v9 out of range (cluster has 6 disks)".into()
            },
            "{err}"
        );

        // Double crash blames the *second* table; bad flaky blames
        // [flaky]; bad degrade factor blames its own table.
        for (text, line, needle) in [
            (
                "[[crash]]\ndisk = 0\ntime = 1.0\n\n[[crash]]\ndisk = 0\ntime = 2.0\n",
                5,
                "crashes twice",
            ),
            (
                "[[crash]]\ndisk = 0\ntime = 1.0\nreplacement = 0\n",
                1,
                "itself crashed",
            ),
            (
                "[[degrade]]\ndisk = 1\ntime = 1.0\nfactor = 1.5\n",
                1,
                "must be in (0, 1)",
            ),
            ("\n[flaky]\nprobability = 2.0\n", 2, "must be in [0, 1]"),
        ] {
            let err = FaultPlan::parse_checked(text, 4).unwrap_err();
            let FaultPlanError::Parse { line: l, message } = &err else {
                panic!("{text}: expected a line-numbered error, got {err}");
            };
            assert_eq!(*l, line, "{text}: {err}");
            assert!(message.contains(needle), "{text}: {err}");
        }
    }

    #[test]
    fn parse_checked_agrees_with_parse_plus_validate() {
        let bad_semantics = "[[crash]]\ndisk = 99\ntime = 1.0\n";
        for (text, disks) in [
            (SAMPLE, 6),
            (SAMPLE, 4), // replacement 5 out of range
            ("seed = 3\n", 1),
            (bad_semantics, 4),
            (
                "[[degrade]]\ndisk = 0\ntime = 3.0\nfactor = 0.5\nrecover_at = 2.0\n",
                4,
            ),
        ] {
            let checked = FaultPlan::parse_checked(text, disks);
            let two_step = FaultPlan::parse(text).and_then(|p| p.validate(disks).map(|()| p));
            assert_eq!(checked.is_ok(), two_step.is_ok(), "{text} on {disks} disks");
            if let (Ok(a), Ok(b)) = (&checked, &two_step) {
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn timeline_is_canonically_ordered() {
        let plan = FaultPlan::parse(SAMPLE).unwrap();
        let tl = plan.timeline();
        let times: Vec<f64> = tl.iter().map(|e| e.time).collect();
        assert_eq!(times, vec![2.0, 4.0, 6.0, 9.0]);
        // Same-timestamp ties: bandwidth changes before crashes, then by
        // disk index — independent of declaration order.
        let a = FaultPlan {
            crashes: vec![CrashFault {
                disk: NodeId::new(2),
                time: 1.0,
                replacement: None,
            }],
            degradations: vec![DegradeFault {
                disk: NodeId::new(0),
                time: 1.0,
                factor: 0.5,
                recover_at: None,
            }],
            ..FaultPlan::default()
        };
        let tl = a.timeline();
        assert!(matches!(tl[0].action, FaultAction::SetBandwidthFactor(..)));
        assert!(matches!(tl[1].action, FaultAction::Crash(..)));
    }

    #[test]
    fn flaky_coin_is_deterministic_and_roughly_calibrated() {
        for &(seed, item, attempt, p) in
            &[(1u64, 2u64, 3u64, 0.3f64), (42, 0, 1, 0.5), (7, 9, 2, 0.01)]
        {
            assert_eq!(
                attempt_fails(seed, item, attempt, p),
                attempt_fails(seed, item, attempt, p)
            );
        }
        assert!(!attempt_fails(1, 1, 1, 0.0));
        assert!(attempt_fails(1, 1, 1, 1.0));
        let fails = (0..10_000)
            .filter(|&i| attempt_fails(99, i, 1, 0.2))
            .count();
        assert!(
            (1_600..=2_400).contains(&fails),
            "p=0.2 over 10k trials gave {fails} failures"
        );
    }

    #[test]
    fn empty_plan_detection() {
        assert!(FaultPlan::default().is_empty());
        assert!(FaultPlan {
            flaky: Some(FlakySpec { probability: 0.0 }),
            ..FaultPlan::default()
        }
        .is_empty());
        assert!(!FaultPlan::parse(SAMPLE).unwrap().is_empty());
    }
}
