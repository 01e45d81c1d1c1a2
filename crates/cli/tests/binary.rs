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

/// A disk index or node count beyond the `u32` id space is an error at
/// its line, not an allocation of that many disks.
#[test]
fn huge_disk_indices_exit_one_naming_the_line() {
    let path = std::env::temp_dir().join(format!("dmig-bin-huge-{}.dmig", std::process::id()));
    for text in ["edge 0 4000000000000", "nodes 4000000000000"] {
        std::fs::write(&path, text).unwrap();
        let (code, out) = dmig(&["solve", &path.to_string_lossy()]);
        assert_eq!(code, 1, "{text}: {out}");
        assert!(out.contains(": line 1: "), "{text}: {out}");
    }
    std::fs::remove_file(&path).ok();
}

/// A node count inside the id space whose arrays cannot be allocated
/// exits 1 naming the count. The address-space limit makes the
/// allocation fail however much memory the host has.
#[test]
#[cfg(target_os = "linux")]
fn an_unallocatable_disk_count_exits_one_naming_it() {
    let path = std::env::temp_dir().join(format!("dmig-bin-alloc-{}.dmig", std::process::id()));
    std::fs::write(&path, "nodes 4294967296\nedge 0 1\n").unwrap();
    let out = Command::new("sh")
        .args(["-c", "ulimit -v 1000000 && exec \"$0\" solve \"$1\""])
        .arg(env!("CARGO_BIN_EXE_dmig"))
        .arg(&path)
        .output()
        .expect("sh runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(
        stdout.contains("cannot allocate a graph of 4294967296 nodes and 1 edges"),
        "{stdout}"
    );
    std::fs::remove_file(&path).ok();
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
