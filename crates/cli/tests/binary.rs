//! End-to-end tests of the actual `dmig` binary.

use std::process::Command;

fn dmig(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_dmig"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn help_exits_zero() {
    let (code, stdout) = dmig(&["help"]);
    assert_eq!(code, 0);
    assert!(stdout.contains("usage"));
}

#[test]
fn unknown_command_exits_nonzero() {
    let (code, stdout) = dmig(&["bogus"]);
    assert_eq!(code, 1);
    assert!(stdout.contains("unknown command"));
}

/// A disk index or node count beyond the `u32` id space, in an instance
/// or a trace, is an error at its line, not an allocation of that many
/// disks.
#[test]
fn huge_disk_indices_exit_one_naming_the_line() {
    let path = std::env::temp_dir().join(format!("dmig-bin-huge-{}.dmig", std::process::id()));
    for (command, text, expected) in [
        ("solve", "edge 0 4000000000000", ": line 1: "),
        ("solve", "nodes 4000000000000", ": line 1: "),
        (
            "import-trace",
            "item 0 4000000000000",
            "line 1: destination disk 4000000000000 exceeds the largest disk index 4294967295",
        ),
    ] {
        std::fs::write(&path, text).unwrap();
        let (code, out) = dmig(&[command, &path.to_string_lossy()]);
        assert_eq!(code, 1, "{text}: {out}");
        assert!(out.contains(expected), "{text}: {out}");
    }
    std::fs::remove_file(&path).ok();
}

/// A disk count inside the id space whose arrays cannot be allocated
/// exits 1 naming the count, and for a trace the line that named the
/// largest disk. The address-space limit makes the allocation fail
/// however much memory the host has.
#[test]
#[cfg(target_os = "linux")]
fn an_unallocatable_disk_count_exits_one_naming_it() {
    let path = std::env::temp_dir().join(format!("dmig-bin-alloc-{}.dmig", std::process::id()));
    for (command, text, expected) in [
        (
            "solve",
            "nodes 4294967296\nedge 0 1\n",
            "cannot allocate a graph of 4294967296 nodes and 1 edges",
        ),
        (
            "import-trace",
            "item 0 1\nitem 4294967295 2\n",
            "line 2: cannot allocate a graph of 4294967296 nodes and 2 edges",
        ),
    ] {
        std::fs::write(&path, text).unwrap();
        let out = Command::new("sh")
            .args(["-c", "ulimit -v 1000000 && exec \"$0\" \"$1\" \"$2\""])
            .arg(env!("CARGO_BIN_EXE_dmig"))
            .arg(command)
            .arg(&path)
            .output()
            .expect("sh runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(1), "{command}: {stdout}");
        assert!(stdout.contains(expected), "{command}: {stdout}");
    }
    std::fs::remove_file(&path).ok();
}

/// A gate rule nested deeper than the expression parser's cap fails that
/// rule by name instead of overflowing the stack.
#[test]
fn deeply_nested_gate_rule_exits_one_naming_the_rule() {
    let dir = std::env::temp_dir();
    let rules = dir.join(format!("dmig-bin-deep-{}.toml", std::process::id()));
    let metrics = dir.join(format!("dmig-bin-deep-{}.json", std::process::id()));
    std::fs::write(&metrics, "{\"x\": 1}").unwrap();
    let parens = format!("{}x{}", "(".repeat(20_000), ")".repeat(20_000));
    let minuses = format!("{}x", "-".repeat(100_000));
    for expr in [parens, minuses] {
        std::fs::write(
            &rules,
            format!("[[rule]]\nname = \"deep\"\nexpr = \"{expr}\"\n"),
        )
        .unwrap();
        let (code, out) = dmig(&[
            "obs",
            "gate",
            &rules.to_string_lossy(),
            &metrics.to_string_lossy(),
        ]);
        assert_eq!(code, 1);
        assert!(out.contains("deep"), "{}", &out[..out.len().min(300)]);
        assert!(out.contains("nests deeper than 512 levels"));
    }
    std::fs::remove_file(&rules).ok();
    std::fs::remove_file(&metrics).ok();
}

#[test]
fn generate_pipe_solve_roundtrip() {
    let (code, instance) = dmig(&["generate", "k3", "4", "2"]);
    assert_eq!(code, 0);
    let path = std::env::temp_dir().join(format!("dmig-bin-test-{}.dmig", std::process::id()));
    std::fs::write(&path, &instance).unwrap();
    let path = path.to_string_lossy().into_owned();

    let (code, solved) = dmig(&["solve", &path, "--solver", "even-optimal"]);
    assert_eq!(code, 0, "{solved}");
    assert!(
        solved.contains("4 rounds"),
        "Fig. 2 with M=4, c=2 is 4 rounds:\n{solved}"
    );

    let (code, bounds) = dmig(&["bounds", &path]);
    assert_eq!(code, 0);
    assert!(bounds.contains("LB1"));

    let (code, compare) = dmig(&["compare", &path]);
    assert_eq!(code, 0);
    assert!(compare.contains("homogeneous"));

    let (code, sim) = dmig(&["simulate", &path]);
    assert_eq!(code, 0);
    assert!(sim.contains("wall-clock time 8.000"), "{sim}");
    std::fs::remove_file(std::path::Path::new(&path)).ok();
}

/// `dmig solve` never computes Γ': its snapshot carries `solve.lb1` but
/// no `solve.lb2`, and every Dinic call is a quota-partition flow solve.
/// Its spans cover the command: parse, solve, validate and render are
/// the roots. `simulate --explain` computes Γ' once, for the witness it
/// prints, and publishes it as `solve.lb2`; its roots are the parse, the
/// solve, the simulation and the explanation.
#[test]
fn only_explain_snapshots_carry_gamma_prime() {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let path = dir.join(format!("dmig-bin-lb-{pid}.dmig"));
    let (code, instance) = dmig(&["generate", "k3", "3", "2"]);
    assert_eq!(code, 0);
    std::fs::write(&path, instance).unwrap();
    let snapshot = |command: &[&str], name: &str| {
        let metrics = dir.join(format!("dmig-bin-lb-{name}-{pid}.json"));
        let mut args = command.to_vec();
        args.extend([
            path.to_str().unwrap(),
            "--metrics-out",
            metrics.to_str().unwrap(),
        ]);
        let (code, out) = dmig(&args);
        assert_eq!(code, 0, "{out}");
        let text = std::fs::read_to_string(&metrics).unwrap();
        std::fs::remove_file(&metrics).ok();
        dmig_obs::Snapshot::from_value(&dmig_obs::Value::parse(&text).unwrap()).unwrap()
    };

    let solve = snapshot(&["solve"], "solve");
    assert_eq!(
        solve.gauges.get("solve.lb1"),
        Some(&3),
        "{:?}",
        solve.gauges
    );
    assert!(
        !solve.gauges.contains_key("solve.lb2"),
        "{:?}",
        solve.gauges
    );
    assert_eq!(
        solve.counters["dinic.calls"], solve.counters["flow_solves"],
        "{:?}",
        solve.counters
    );
    let roots: Vec<&str> = solve.spans.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(
        roots,
        [
            "solve.parse",
            "solve_sharded",
            "solve.validate",
            "solve.render"
        ]
    );

    let explained = snapshot(&["simulate", "--explain"], "explain");
    // One Γ' max-flow beyond the solve's (one Dinkelbach step on K3).
    assert_eq!(
        explained.counters["dinic.calls"],
        explained.counters["flow_solves"] + 1
    );
    let lb1 = explained.gauges["solve.lb1"];
    assert_eq!(explained.gauges.get("solve.lb2"), Some(&3));
    assert_eq!(explained.gauges["explain.binding_bound"], lb1);
    let roots: Vec<&str> = explained.spans.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(
        roots,
        [
            "simulate.parse",
            "solve_sharded",
            "simulate_rounds",
            "simulate.explain"
        ]
    );
    std::fs::remove_file(&path).ok();
}

/// A flag a command does not take, or a value flag without its value,
/// exits 1 naming the flag, and a refused `migrate plan` creates no
/// workspace. Each of these once ran with the flag ignored and exited 0.
#[test]
fn misspelt_and_dangling_flags_exit_one_naming_the_flag() {
    let dir = std::env::temp_dir().join(format!("dmig-bin-flags-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let (code, instance) = dmig(&["generate", "rebalance", "6", "24", "2"]);
    assert_eq!(code, 0, "{instance}");
    std::fs::write(path("fault.instance"), instance).unwrap();
    std::fs::write(path("t.trace"), "item 0 1\n").unwrap();
    let faults = concat!(env!("CARGO_MANIFEST_DIR"), "/../../ci-faults.toml");
    let planned = path("planned");
    let (code, out) = dmig(&[
        "migrate",
        "plan",
        &path("fault.instance"),
        "--workspace",
        &planned,
    ]);
    assert_eq!(code, 0, "{out}");
    let ws = path("ws");
    for (args, flag) in [
        (
            vec![
                "migrate",
                "plan",
                &path("fault.instance"),
                "--workspace",
                &ws,
                "--fault",
                faults,
            ],
            "unknown flag `--fault`",
        ),
        (
            vec!["solve", &path("fault.instance"), "--thread", "1"],
            "unknown flag `--thread`",
        ),
        (
            vec![
                "migrate",
                "plan",
                &path("fault.instance"),
                "--workspace",
                &ws,
                "--trace",
            ],
            "unknown flag `--trace`",
        ),
        (
            vec!["generate", "k3", "2", "2", "--seed"],
            "bad --seed: missing value",
        ),
        (
            vec!["import-trace", &path("t.trace"), "--default-cap"],
            "bad --default-cap: missing value",
        ),
        (
            vec!["migrate", "execute", "--workspace", &planned, "--threads"],
            "bad --threads: missing value",
        ),
    ] {
        let (code, out) = dmig(&args);
        assert_eq!(code, 1, "{args:?}: {out}");
        assert!(out.contains(flag), "{args:?}: {out}");
        assert!(!dir.join("ws").exists(), "{args:?} created a workspace");
    }
    assert!(!dir.join("planned").join("journal.jsonl").exists());
    std::fs::remove_dir_all(&dir).ok();
}
