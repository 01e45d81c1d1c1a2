//! `dmig generate` and `dmig import-trace`: the commands that write an
//! instance.

use dmig_core::MigrationProblem;

use crate::args::Args;
use crate::{files, instance};

pub(crate) fn cmd_import_trace(args: &Args<'_>) -> Result<String, String> {
    let text = files::read_text(args.first("trace file")?)?;
    let trace = dmig_workloads::trace::parse_trace(&text).map_err(|e| e.to_string())?;
    let cap = args.number("--default-cap")?.unwrap_or(1);
    let problem =
        dmig_core::MigrationProblem::uniform(trace.graph, cap).map_err(|e| e.to_string())?;
    Ok(instance::to_instance_text(&problem))
}

pub(crate) fn cmd_generate(args: &Args<'_>) -> Result<String, String> {
    use dmig_workloads::{capacities, disk_ops, random, reconfigure};
    let pos = args.operands();
    let kind = args.first("kind")?;
    let seed = args.number("--seed")?.unwrap_or(42);
    let num = |i: usize, what: &str| -> Result<usize, String> {
        pos.get(i)
            .ok_or_else(|| format!("generate {kind}: missing {what}"))?
            .parse::<usize>()
            .map_err(|_| format!("generate {kind}: invalid {what}"))
    };
    let problem = match kind {
        "k3" => {
            let m = num(1, "M")?;
            let cap = num(2, "cap")?;
            MigrationProblem::uniform(
                dmig_graph::builder::complete_multigraph(3, m),
                u32::try_from(cap).map_err(|_| "cap too large")?,
            )
        }
        "uniform" => {
            let n = num(1, "n")?;
            let m = num(2, "m")?;
            let lo = u32::try_from(num(3, "lo")?).map_err(|_| "lo too large")?;
            let hi = u32::try_from(num(4, "hi")?).map_err(|_| "hi too large")?;
            let g = random::uniform_multigraph(n, m, seed);
            MigrationProblem::new(g, capacities::mixed_parity(n, lo, hi, seed))
        }
        "clustered" => {
            let n = num(1, "n")?;
            let m = num(2, "m")?;
            let clusters = num(3, "clusters")?;
            // 8 parallel ring links per block boundary and half_max 3 even
            // caps match the bench corpus (`clustered_giant`), so CI can
            // regenerate its instances from the CLI alone. Pre-validate
            // what the generator would assert.
            const INTER_PER_LINK: usize = 8;
            if clusters == 0 || n / clusters < 2 {
                return Err(format!(
                    "generate clustered: need at least 2 nodes per cluster \
                     ({n} nodes / {clusters} clusters)"
                ));
            }
            let ring = if clusters > 1 {
                clusters * INTER_PER_LINK
            } else {
                0
            };
            let base = (n - clusters) + ring;
            if m < base {
                return Err(format!(
                    "generate clustered: need at least {base} edges for \
                     {clusters} connected clusters, got {m}"
                ));
            }
            let g = random::clustered_multigraph(n, m, clusters, INTER_PER_LINK, seed);
            MigrationProblem::new(g, capacities::random_even(n, 3, seed ^ 1))
        }
        "rebalance" => {
            let n = num(1, "n")?;
            let items = num(2, "items")?;
            let cap = u32::try_from(num(3, "cap")?).map_err(|_| "cap too large")?;
            MigrationProblem::uniform(reconfigure::load_balance_delta(n, items, seed), cap)
        }
        "add" => {
            let old = num(1, "old")?;
            let new = num(2, "new")?;
            let items = num(3, "items")?;
            let cap = u32::try_from(num(4, "cap")?).map_err(|_| "cap too large")?;
            MigrationProblem::uniform(disk_ops::disk_addition(old, new, items, seed), cap)
        }
        "remove" => {
            let n = num(1, "n")?;
            let gone = num(2, "gone")?;
            let items = num(3, "items")?;
            let cap = u32::try_from(num(4, "cap")?).map_err(|_| "cap too large")?;
            MigrationProblem::uniform(disk_ops::disk_removal(n, gone, items, seed), cap)
        }
        other => return Err(format!("unknown generate kind `{other}`")),
    }
    .map_err(|e| e.to_string())?;
    Ok(instance::to_instance_text(&problem))
}

#[cfg(test)]
mod tests {
    use crate::instance;
    use crate::testutil::{run_ok, run_str, write_temp};

    #[test]
    fn generate_then_solve() {
        let gen = run_str(&["generate", "k3", "3", "2"]);
        assert_eq!(gen.code, 0);
        let path = write_temp("gen", &gen.stdout);
        let out = run_str(&["solve", &path]);
        assert_eq!(out.code, 0);
        assert!(out.stdout.contains("3 rounds") || out.stdout.contains("rounds"));
    }

    #[test]
    fn generate_kinds() {
        for args in [
            vec!["generate", "uniform", "8", "30", "1", "4", "--seed", "7"],
            vec!["generate", "clustered", "40", "400", "4", "--seed", "3"],
            vec!["generate", "rebalance", "6", "40", "2"],
            vec!["generate", "add", "6", "2", "30", "3"],
            vec!["generate", "remove", "8", "2", "30", "3"],
        ] {
            let out = run_str(&args);
            assert_eq!(out.code, 0, "{args:?}: {}", out.stdout);
            assert!(instance::parse_instance(&out.stdout).is_ok());
        }
        assert_eq!(run_str(&["generate", "mystery"]).code, 1);
    }

    #[test]
    fn generate_clustered_validates_shape() {
        // Too few edges for the spanning paths plus the ring.
        let out = run_str(&["generate", "clustered", "40", "10", "4"]);
        assert_eq!(out.code, 1, "{}", out.stdout);
        assert!(out.stdout.contains("need at least"), "{}", out.stdout);
        // Fewer than two nodes per cluster.
        let out = run_str(&["generate", "clustered", "4", "100", "4"]);
        assert_eq!(out.code, 1, "{}", out.stdout);
        assert!(out.stdout.contains("per cluster"), "{}", out.stdout);
    }

    #[test]
    fn import_trace_command() {
        let path = write_temp("trace", "item 0 1\nitem 1 2 0.5\nitem 0 2\n");
        let out = run_ok(&["import-trace", &path, "--default-cap", "2"]);
        let p = instance::parse_instance(&out).unwrap();
        assert_eq!(p.num_items(), 3);
        assert_eq!(p.capacities().as_slice(), &[2, 2, 2]);
        let bad = run_str(&["import-trace", &path, "--default-cap", "x"]);
        assert_eq!(bad.code, 1);
    }
}
