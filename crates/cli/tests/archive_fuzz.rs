//! Seeded mutation fuzz of the `dmig-archive/1` reader.
//!
//! The CI fault workspace is planned, executed and exported once. Each
//! case mutates the exported archive with one or two seeded mutations —
//! byte flips, inserts and truncations, records duplicated, dropped or
//! reordered, lengths and names edited, the header and the checksum
//! manifest tampered with — and hands it to `archive::unpack` and then
//! `archive::verify_checksums`, the two checks `migrate import` runs
//! before it writes a byte. Neither may panic. A rejection must name what
//! it rejects: `unpack` the header or the 1-based `file` record, and
//! every line of a `verify_checksums` error the checksum manifest. What
//! both accept lists each name once, and packs and unpacks to itself.

use std::collections::BTreeSet;

use dmig_cli::archive::{self, CHECKSUM_FILE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

type Files = Vec<(String, Vec<u8>)>;

fn dmig(args: &[&str]) -> (i32, String) {
    let args: Vec<String> = args.iter().map(|a| (*a).to_string()).collect();
    let out = dmig_cli::run(&args);
    (out.code, out.stdout)
}

/// The exported archive of the CI fault scenario's executed workspace.
fn exported_archive() -> Vec<u8> {
    let dir = std::env::temp_dir().join(format!("dmig-archive-fuzz-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let (code, instance) = dmig(&["generate", "rebalance", "6", "24", "2"]);
    assert_eq!(code, 0, "{instance}");
    std::fs::write(path("fault.instance"), instance).unwrap();
    let faults = concat!(env!("CARGO_MANIFEST_DIR"), "/../../ci-faults.toml");
    let ws = path("ws");
    for args in [
        vec![
            "migrate",
            "plan",
            &path("fault.instance"),
            "--workspace",
            &ws,
            "--faults",
            faults,
            "--replan",
            "--threads",
            "1",
        ],
        vec!["migrate", "execute", "--workspace", &ws],
        vec![
            "migrate",
            "export",
            "--workspace",
            &ws,
            "--out",
            &path("ws.archive"),
        ],
    ] {
        let (code, out) = dmig(&args);
        assert_eq!(code, 0, "{args:?}: {out}");
    }
    let bytes = std::fs::read(path("ws.archive")).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    bytes
}

/// Packs `files` as `archive::pack` does, but with each record's length
/// as `len` gives it.
fn pack_with_lengths(files: &Files, len: impl Fn(usize, usize) -> String) -> Vec<u8> {
    let mut out = b"dmig-archive/1\n".to_vec();
    for (i, (name, bytes)) in files.iter().enumerate() {
        out.extend_from_slice(format!("file {name} {}\n", len(i, bytes.len())).as_bytes());
        out.extend_from_slice(bytes);
        out.push(b'\n');
    }
    out
}

/// One seeded mutation of `archive`, whose records are `files`.
fn mutate(archive: &[u8], files: &Files, rng: &mut StdRng) -> Vec<u8> {
    const BYTES: &[u8] = b"\n \x00\xFF/.-+0123456789abcdefile";
    let mut files = files.clone();
    let pick = |rng: &mut StdRng, n: usize| rng.gen_range(0..n.max(1));
    match rng.gen_range(0..11) {
        0 => {
            // A byte flipped.
            let mut b = archive.to_vec();
            let i = pick(rng, b.len());
            b[i] = if rng.gen_bool(0.5) {
                BYTES[pick(rng, BYTES.len())]
            } else {
                rng.gen()
            };
            b
        }
        1 => {
            // A byte inserted.
            let mut b = archive.to_vec();
            let i = rng.gen_range(0..=b.len());
            b.insert(i, BYTES[pick(rng, BYTES.len())]);
            b
        }
        2 => archive[..pick(rng, archive.len())].to_vec(),
        3 => {
            // A record duplicated, its copy keeping or replacing the bytes.
            let i = pick(rng, files.len());
            let mut copy = files[i].clone();
            if rng.gen_bool(0.5) {
                copy.1 = b"{\"forged\": true}\n".to_vec();
            }
            let at = rng.gen_range(0..=files.len());
            files.insert(at, copy);
            archive::pack(&files)
        }
        4 => {
            // Records reordered.
            for i in (1..files.len()).rev() {
                files.swap(i, rng.gen_range(0..=i));
            }
            archive::pack(&files)
        }
        5 => {
            files.remove(pick(rng, files.len()));
            archive::pack(&files)
        }
        6 => {
            // A length edited: off by a little or a lot, or not a length.
            let i = pick(rng, files.len());
            let edit = rng.gen_range(0..8);
            pack_with_lengths(&files, |k, len| {
                if k != i {
                    return len.to_string();
                }
                match edit {
                    0 => (len + 1).to_string(),
                    1 => len.saturating_sub(1).to_string(),
                    2 => (len + 1000).to_string(),
                    3 => "18446744073709551615".to_string(),
                    4 => "99999999999999999999999".to_string(),
                    5 => format!("+{len}"),
                    6 => format!("-{len}"),
                    _ => format!("{len} extra"),
                }
            })
        }
        7 => {
            // A name edited: to another record's, to an illegal one, or to
            // one the checksums do not cover.
            let i = pick(rng, files.len());
            let other = files[pick(rng, files.len())].0.clone();
            files[i].0 = match rng.gen_range(0..7) {
                0 => other,
                1 => "..".to_string(),
                2 => "../evil".to_string(),
                3 => "a/b".to_string(),
                4 => "nul\0".to_string(),
                5 => String::new(),
                _ => format!("{}.bak", files[i].0),
            };
            archive::pack(&files)
        }
        8 => {
            // The header edited.
            let header = ["dmig-archive/2", "", "dmig-archive/1 ", "\u{FF}"][pick(rng, 4)];
            let mut b = header.as_bytes().to_vec();
            b.extend_from_slice(&archive[archive.iter().position(|&c| c == b'\n').unwrap()..]);
            b
        }
        9 => {
            // A line of the checksum manifest dropped, swapped for
            // another's digest, or broken.
            let Some(k) = files.iter().position(|(n, _)| n == CHECKSUM_FILE) else {
                return archive::pack(&files);
            };
            let Ok(text) = String::from_utf8(files[k].1.clone()) else {
                return archive::pack(&files);
            };
            let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
            let i = pick(rng, lines.len());
            let j = pick(rng, lines.len());
            let digest = lines.get(j).and_then(|l| l.get(..64)).map(str::to_string);
            match (rng.gen_range(0..4), digest) {
                (0, _) if i < lines.len() => {
                    lines.remove(i);
                }
                (1, Some(digest)) if lines[i].get(..64).is_some() => {
                    lines[i].replace_range(..64, &digest);
                }
                (2, _) if i < lines.len() => lines[i] = lines[i].replacen("  ", " ", 1),
                _ => lines.push(format!("{}  ghost.json", "0".repeat(64))),
            }
            files[k].1 = (lines.join("\n") + "\n").into_bytes();
            archive::pack(&files)
        }
        _ => {
            // A payload edited in place: its checksum no longer holds.
            let i = pick(rng, files.len());
            let payload = &mut files[i].1;
            if !payload.is_empty() {
                let j = pick(rng, payload.len());
                payload[j] ^= 1 << rng.gen_range(0..8);
            }
            archive::pack(&files)
        }
    }
}

#[test]
fn mutated_archives_are_rejected_naming_the_record_or_the_checksums_line() {
    let original = exported_archive();
    let files = archive::unpack(&original).expect("the export unpacks");
    archive::verify_checksums(&files).expect("the export verifies");
    assert_eq!(archive::pack(&files), original, "pack(unpack(x)) == x");
    assert!(files.len() >= 8, "{} files", files.len());

    let mut rng = StdRng::seed_from_u64(23);
    let (mut accepted, mut unpack_rejected, mut verify_rejected) = (0, 0, 0);
    for _ in 0..3000 {
        let mut data = mutate(&original, &files, &mut rng);
        if rng.gen_range(0..4) == 0 {
            let again = archive::unpack(&data).unwrap_or_else(|_| files.clone());
            data = mutate(&data, &again, &mut rng);
        }
        let unpacked = match archive::unpack(&data) {
            Ok(unpacked) => unpacked,
            Err(e) => {
                unpack_rejected += 1;
                let records = data.iter().filter(|&&b| b == b'\n').count();
                let named = e.starts_with("archive: record ")
                    && e["archive: record ".len()..]
                        .split(':')
                        .next()
                        .and_then(|n| n.parse::<usize>().ok())
                        .is_some_and(|n| (1..=records).contains(&n));
                assert!(
                    named || e.starts_with("archive: header `") || e.contains(" header"),
                    "unpack's error names no record: {e}"
                );
                continue;
            }
        };
        // What unpacks lists each name once and round-trips.
        let names: BTreeSet<&str> = unpacked.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names.len(), unpacked.len(), "a name listed twice unpacked");
        assert_eq!(
            archive::unpack(&archive::pack(&unpacked)).unwrap(),
            unpacked,
            "unpack(pack(x)) != x"
        );
        match archive::verify_checksums(&unpacked) {
            Ok(()) => {
                accepted += 1;
                // Every file the checksums cover is the exported one (a
                // record and its checksum line can be dropped together).
                for (name, bytes) in unpacked.iter().filter(|(n, _)| n != CHECKSUM_FILE) {
                    let want = files.iter().find(|(n, _)| n == name).map(|(_, b)| b);
                    assert_eq!(Some(bytes), want, "{name} verified with other bytes");
                }
            }
            Err(e) => {
                verify_rejected += 1;
                for line in e.lines() {
                    assert!(
                        line.contains(CHECKSUM_FILE),
                        "verify's error names no checksums line: {line}"
                    );
                }
            }
        }
    }
    assert!(
        accepted >= 100 && unpack_rejected >= 500 && verify_rejected >= 500,
        "the mutations must exercise every verdict: {accepted} accepted, \
         {unpack_rejected} refused by unpack, {verify_rejected} by verify"
    );
}
