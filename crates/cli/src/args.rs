//! The one command-line reader. Every command names the flags it takes,
//! and [`Args::parse`] splits its arguments into operands and flags,
//! refusing a flag the command does not take and a value flag without its
//! value. The readers at the end turn the flags several commands share
//! into what those commands run with.

use std::fmt::Display;
use std::str::FromStr;

use dmig_core::parallel::{default_threads, ParallelSolver};
use dmig_core::solver::{solver_by_name, AutoSolver, Solver};
use dmig_core::MigrationProblem;
use dmig_sim::{Cluster, ExecutorConfig, FaultPlan};

use crate::files;

/// The flags a command takes, written as `dmig help` writes them: a flag
/// followed by a placeholder (`--threads N`) takes a value, and a flag
/// followed by another flag or by nothing (`--replan`) stands alone.
pub(crate) type Flags = &'static [&'static str];

/// Whether `flags` take `flag`, and if so whether it takes a value.
fn lookup(flags: Flags, flag: &str) -> Option<bool> {
    flags.iter().find_map(|spec| {
        let mut words = spec.split_whitespace().peekable();
        while let Some(word) = words.next() {
            if word == flag {
                return Some(words.peek().is_some_and(|next| !next.starts_with("--")));
            }
        }
        None
    })
}

/// One command's arguments, split by the [`Flags`] it takes.
pub(crate) struct Args<'a> {
    cmd: &'a str,
    operands: Vec<&'a str>,
    /// Every flag given, with its value (none for a switch), in order; the
    /// first occurrence of a flag is the one read.
    flags: Vec<(&'a str, Option<&'a str>)>,
}

impl<'a> Args<'a> {
    /// Splits `args`, the arguments after the command `cmd`. An argument
    /// that starts with `--` is a flag; a value flag takes the argument
    /// after it, whatever it is.
    ///
    /// # Errors
    ///
    /// A flag `cmd` does not take, or a value flag that ends the line.
    pub(crate) fn parse(
        cmd: &'a str,
        flags: Flags,
        args: &'a [String],
    ) -> Result<Args<'a>, String> {
        let mut out = Args {
            cmd,
            operands: Vec::new(),
            flags: Vec::new(),
        };
        let mut it = args.iter().map(String::as_str);
        while let Some(arg) = it.next() {
            if !arg.starts_with("--") {
                out.operands.push(arg);
                continue;
            }
            let value = match lookup(flags, arg) {
                None => return Err(format!("{cmd}: unknown flag `{arg}`; try `dmig help`")),
                Some(false) => None,
                Some(true) => Some(it.next().ok_or(format!("bad {arg}: missing value"))?),
            };
            out.flags.push((arg, value));
        }
        Ok(out)
    }

    /// The operands: the arguments that are neither flags nor flag values,
    /// in order.
    pub(crate) fn operands(&self) -> &[&'a str] {
        &self.operands
    }

    /// The first operand, or `CMD: missing WHAT`.
    pub(crate) fn first(&self, what: &str) -> Result<&'a str, String> {
        self.operands
            .first()
            .copied()
            .ok_or_else(|| format!("{}: missing {what}", self.cmd))
    }

    /// Whether `flag` was given.
    pub(crate) fn given(&self, flag: &str) -> bool {
        self.flags.iter().any(|&(f, _)| f == flag)
    }

    /// The value of `flag`, if given.
    pub(crate) fn value(&self, flag: &str) -> Option<&'a str> {
        self.flags
            .iter()
            .find(|&&(f, _)| f == flag)
            .and_then(|&(_, v)| v)
    }

    /// The value of `flag` read as a `T`.
    ///
    /// # Errors
    ///
    /// `bad FLAG: …` when the value does not parse.
    pub(crate) fn number<T>(&self, flag: &str) -> Result<Option<T>, String>
    where
        T: FromStr,
        T::Err: Display,
    {
        self.value(flag)
            .map(|v| v.parse().map_err(|e| format!("bad {flag}: {e}")))
            .transpose()
    }

    /// The value of `flag` read as a count of at least 1.
    ///
    /// # Errors
    ///
    /// `bad FLAG: …` when the value is not such a count.
    pub(crate) fn count(&self, flag: &str) -> Result<Option<usize>, String> {
        match self.number::<usize>(flag)? {
            Some(0) => Err(format!("bad {flag}: must be at least 1")),
            n => Ok(n),
        }
    }
}

/// Resolves `--solver`/`--threads` into a component-parallel wrapper around
/// the named solver (all cores without `--threads`). The schedule does not
/// depend on the thread count, so the wrapper is always applied; display
/// code prints the inner name.
pub(crate) fn solver(args: &Args<'_>) -> Result<ParallelSolver, String> {
    let inner: Box<dyn Solver> = match args.value("--solver") {
        Some(name) => solver_by_name(name)
            .ok_or_else(|| format!("unknown solver `{name}`; try `dmig help`"))?,
        None => Box::new(AutoSolver),
    };
    let threads = args.count("--threads")?.unwrap_or_else(default_threads);
    Ok(ParallelSolver::with_threads(inner, threads))
}

/// Resolves `--bandwidths B0,B1,…` into a [`Cluster`] (uniform unit
/// bandwidth when absent).
pub(crate) fn cluster(args: &Args<'_>, problem: &MigrationProblem) -> Result<Cluster, String> {
    let Some(spec) = args.value("--bandwidths") else {
        return Ok(Cluster::uniform(problem.num_disks(), 1.0));
    };
    spec.split(',')
        .enumerate()
        .map(|(v, raw)| {
            raw.parse::<f64>()
                .map_err(|_| format!("disk {v} bandwidth `{raw}` is not a number"))
        })
        .collect::<Result<Vec<f64>, String>>()
        .and_then(|bws| checked_cluster(bws, problem.num_disks()))
        .map_err(|e| format!("bad --bandwidths: {e}"))
}

/// A cluster with one bandwidth per disk of a `disks`-disk instance, each
/// finite and > 0; otherwise an error naming the first bad entry.
pub(crate) fn checked_cluster(bandwidths: Vec<f64>, disks: usize) -> Result<Cluster, String> {
    if bandwidths.len() != disks {
        return Err(format!(
            "{} bandwidths for a {disks}-disk instance",
            bandwidths.len()
        ));
    }
    if let Some((v, b)) = bandwidths
        .iter()
        .enumerate()
        .find(|&(_, &b)| !(b.is_finite() && b > 0.0))
    {
        return Err(format!("disk {v} bandwidth {b} must be finite and > 0"));
    }
    Ok(Cluster::from_bandwidths(bandwidths))
}

/// The fault flags of `simulate` and `migrate plan`: the plan of
/// `--faults FILE`, as its text and as checked against `problem` (a disk
/// beyond the cluster fails at its line), and the recovery policy of
/// `--replan` and `--retry-max N`.
pub(crate) fn faults(
    args: &Args<'_>,
    problem: &MigrationProblem,
) -> Result<(Option<(String, FaultPlan)>, ExecutorConfig), String> {
    let plan = match args.value("--faults") {
        Some(path) => {
            let text = files::read_text(path)?;
            let plan = FaultPlan::parse_checked(&text, problem.num_disks())
                .map_err(|e| format!("{path}: {e}"))?;
            Some((text, plan))
        }
        None => None,
    };
    let default = ExecutorConfig::default();
    let config = ExecutorConfig {
        replan: args.given("--replan"),
        retry_max: args.number("--retry-max")?.unwrap_or(default.retry_max),
        ..default
    };
    Ok((plan, config))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &[&str]) -> Result<Args<'static>, String> {
        let line: Vec<String> = line.iter().map(ToString::to_string).collect();
        let flags = &["--threads N --check", "--out FILE"];
        Args::parse("cmd", flags, Vec::leak(line))
    }

    #[test]
    fn splits_operands_and_flags() {
        let args = parse(&["a", "--threads", "3", "-1", "--check", "--out", "--check"]).unwrap();
        assert_eq!(args.operands(), ["a", "-1"]);
        assert_eq!(args.first("thing"), Ok("a"));
        assert_eq!(args.count("--threads"), Ok(Some(3)));
        assert!(args.given("--check"));
        // A value flag takes the next argument, whatever it is, and the
        // first occurrence of a flag wins.
        assert_eq!(args.value("--out"), Some("--check"));
        let args = parse(&["--threads", "2", "--threads", "x"]).unwrap();
        assert_eq!(args.count("--threads"), Ok(Some(2)));
    }

    #[test]
    fn errors_name_the_flag() {
        let err = |line: &[&str]| parse(line).err().unwrap();
        assert_eq!(
            err(&["--thread"]),
            "cmd: unknown flag `--thread`; try `dmig help`"
        );
        assert_eq!(
            err(&["--trace"]),
            "cmd: unknown flag `--trace`; try `dmig help`"
        );
        assert_eq!(err(&["x", "--out"]), "bad --out: missing value");
        assert_eq!(
            parse(&[]).unwrap().first("thing"),
            Err("cmd: missing thing".into())
        );
        let args = parse(&["--threads", "0", "--out", "x"]).unwrap();
        assert_eq!(
            args.count("--threads"),
            Err("bad --threads: must be at least 1".into())
        );
        assert_eq!(
            args.number::<u64>("--out"),
            Err("bad --out: invalid digit found in string".into())
        );
        assert_eq!(args.number::<u64>("--absent"), Ok(None));
    }
}
