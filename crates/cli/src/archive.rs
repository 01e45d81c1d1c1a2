//! Integrity-checked workspace archives: `dmig-archive/1`.
//!
//! `dmig migrate export` packs a migration workspace into one
//! self-describing file; `import` unpacks it and verifies every byte
//! against the embedded `checksums.sha256` before declaring the
//! workspace usable. The point is *custody*: a workspace that traveled
//! through mail, object storage, or a flaky USB stick either reproduces
//! exactly or fails loudly with the offending file and checksum line.
//!
//! The container is deliberately primitive — a header line, then
//! `file <name> <len>` records each followed by `<len>` raw bytes — so
//! it can be parsed without any dependency and audited with `xxd`. The
//! digest is a from-scratch SHA-256 (the workspace has no crates.io
//! access), pinned against FIPS 180-4 test vectors in the unit tests.

use std::fmt::Write as _;
use std::path::Path;

/// Header line of the archive container.
pub const ARCHIVE_SCHEMA: &str = "dmig-archive/1";

/// Name of the checksum manifest inside workspaces and archives.
pub const CHECKSUM_FILE: &str = "checksums.sha256";

// --- SHA-256 (FIPS 180-4), std-only -----------------------------------

const K: [u32; 64] = [
    0x428a_2f98,
    0x7137_4491,
    0xb5c0_fbcf,
    0xe9b5_dba5,
    0x3956_c25b,
    0x59f1_11f1,
    0x923f_82a4,
    0xab1c_5ed5,
    0xd807_aa98,
    0x1283_5b01,
    0x2431_85be,
    0x550c_7dc3,
    0x72be_5d74,
    0x80de_b1fe,
    0x9bdc_06a7,
    0xc19b_f174,
    0xe49b_69c1,
    0xefbe_4786,
    0x0fc1_9dc6,
    0x240c_a1cc,
    0x2de9_2c6f,
    0x4a74_84aa,
    0x5cb0_a9dc,
    0x76f9_88da,
    0x983e_5152,
    0xa831_c66d,
    0xb003_27c8,
    0xbf59_7fc7,
    0xc6e0_0bf3,
    0xd5a7_9147,
    0x06ca_6351,
    0x1429_2967,
    0x27b7_0a85,
    0x2e1b_2138,
    0x4d2c_6dfc,
    0x5338_0d13,
    0x650a_7354,
    0x766a_0abb,
    0x81c2_c92e,
    0x9272_2c85,
    0xa2bf_e8a1,
    0xa81a_664b,
    0xc24b_8b70,
    0xc76c_51a3,
    0xd192_e819,
    0xd699_0624,
    0xf40e_3585,
    0x106a_a070,
    0x19a4_c116,
    0x1e37_6c08,
    0x2748_774c,
    0x34b0_bcb5,
    0x391c_0cb3,
    0x4ed8_aa4a,
    0x5b9c_ca4f,
    0x682e_6ff3,
    0x748f_82ee,
    0x78a5_636f,
    0x84c8_7814,
    0x8cc7_0208,
    0x90be_fffa,
    0xa450_6ceb,
    0xbef9_a3f7,
    0xc671_78f2,
];

/// SHA-256 digest of `data`.
#[must_use]
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h: [u32; 8] = [
        0x6a09_e667,
        0xbb67_ae85,
        0x3c6e_f372,
        0xa54f_f53a,
        0x510e_527f,
        0x9b05_688c,
        0x1f83_d9ab,
        0x5be0_cd19,
    ];
    // Padding: 0x80, zeros to 56 mod 64, then the bit length, big-endian.
    let mut msg = data.to_vec();
    let bit_len = (data.len() as u64).wrapping_mul(8);
    msg.push(0x80);
    while msg.len() % 64 != 56 {
        msg.push(0);
    }
    msg.extend_from_slice(&bit_len.to_be_bytes());
    let mut w = [0u32; 64];
    for block in msg.chunks_exact(64) {
        for (t, word) in block.chunks_exact(4).enumerate() {
            w[t] = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
        }
        for t in 16..64 {
            let s0 = w[t - 15].rotate_right(7) ^ w[t - 15].rotate_right(18) ^ (w[t - 15] >> 3);
            let s1 = w[t - 2].rotate_right(17) ^ w[t - 2].rotate_right(19) ^ (w[t - 2] >> 10);
            w[t] = w[t - 16]
                .wrapping_add(s0)
                .wrapping_add(w[t - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = h;
        for t in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = hh
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[t])
                .wrapping_add(w[t]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            hh = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (slot, v) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
            *slot = slot.wrapping_add(v);
        }
    }
    let mut out = [0u8; 32];
    for (i, word) in h.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// Lowercase hex SHA-256 of `data`.
#[must_use]
pub fn sha256_hex(data: &[u8]) -> String {
    let mut s = String::with_capacity(64);
    for b in sha256(data) {
        let _ = write!(s, "{b:02x}");
    }
    s
}

// --- Container ---------------------------------------------------------

/// Renders a `checksums.sha256` document (`<hex>  <name>` lines, sorted
/// by name) over the given files.
#[must_use]
pub fn render_checksums(files: &[(String, Vec<u8>)]) -> String {
    let mut rows: Vec<(&str, String)> = files
        .iter()
        .map(|(name, bytes)| (name.as_str(), sha256_hex(bytes)))
        .collect();
    rows.sort_by(|a, b| a.0.cmp(b.0));
    let mut out = String::new();
    for (name, hex) in rows {
        let _ = writeln!(out, "{hex}  {name}");
    }
    out
}

/// Packs named files into one `dmig-archive/1` byte stream. Callers are
/// expected to include a [`CHECKSUM_FILE`] entry (see
/// [`render_checksums`]); [`unpack`]-side verification requires it.
#[must_use]
pub fn pack(files: &[(String, Vec<u8>)]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(ARCHIVE_SCHEMA.as_bytes());
    out.push(b'\n');
    for (name, bytes) in files {
        out.extend_from_slice(format!("file {name} {}\n", bytes.len()).as_bytes());
        out.extend_from_slice(bytes);
        out.push(b'\n');
    }
    out
}

/// A file name acceptable inside an archive: a single path component,
/// no separators, no traversal.
fn check_name(name: &str) -> Result<(), String> {
    if name.is_empty()
        || name == "."
        || name == ".."
        || name.contains('/')
        || name.contains('\\')
        || name.contains('\0')
    {
        return Err(format!("illegal file name `{name}`"));
    }
    Ok(())
}

/// Unpacks a `dmig-archive/1` byte stream into `(name, bytes)` pairs.
///
/// # Errors
///
/// Describes the structural violation: a missing, binary or wrong header,
/// or, naming the 1-based `file` record (`archive: record N: …`), a
/// malformed record, a truncated payload, an illegal name, or a name an
/// earlier record already listed. [`verify_checksums`] checks the one
/// entry per name that `import` writes, so a second entry is refused here.
pub fn unpack(data: &[u8]) -> Result<Vec<(String, Vec<u8>)>, String> {
    let header_end = data
        .iter()
        .position(|&b| b == b'\n')
        .ok_or("archive: missing header line")?;
    let header = std::str::from_utf8(&data[..header_end]).map_err(|_| "archive: binary header")?;
    if header != ARCHIVE_SCHEMA {
        return Err(format!(
            "archive: header `{header}` is not `{ARCHIVE_SCHEMA}`"
        ));
    }
    let mut files: Vec<(String, Vec<u8>)> = Vec::new();
    let mut at = header_end + 1;
    while at < data.len() {
        let n = files.len() + 1;
        let bad = |what: String| format!("archive: record {n}: {what}");
        let line_end = data[at..]
            .iter()
            .position(|&b| b == b'\n')
            .map(|i| at + i)
            .ok_or_else(|| bad("truncated file record".to_string()))?;
        let record = std::str::from_utf8(&data[at..line_end])
            .map_err(|_| bad("binary file record".to_string()))?;
        let mut parts = record.splitn(3, ' ');
        let (kw, name, len) = (parts.next(), parts.next(), parts.next());
        if kw != Some("file") {
            return Err(bad(format!("expected a `file` record, got `{record}`")));
        }
        let name = name.ok_or_else(|| bad(format!("nameless record `{record}`")))?;
        check_name(name).map_err(bad)?;
        if let Some(first) = files.iter().position(|(seen, _)| seen == name) {
            return Err(bad(format!(
                "`{name}` is listed twice (first as record {})",
                first + 1
            )));
        }
        let len: usize = len
            .and_then(|l| l.parse().ok())
            .ok_or_else(|| bad(format!("bad length in `{record}`")))?;
        let start = line_end + 1;
        let end = start
            .checked_add(len)
            .filter(|&e| e < data.len())
            .ok_or_else(|| bad(format!("`{name}` payload truncated")))?;
        if data[end] != b'\n' {
            return Err(bad(format!("`{name}` payload not newline-terminated")));
        }
        files.push((name.to_string(), data[start..end].to_vec()));
        at = end + 1;
    }
    Ok(files)
}

/// Verifies extracted files against their [`CHECKSUM_FILE`] entry.
/// Every mismatch is reported with the 1-based line of the checksum
/// manifest that promised the digest.
///
/// # Errors
///
/// A newline-separated list of violations (missing manifest, malformed
/// lines, digest mismatches, files absent from the manifest).
pub fn verify_checksums(files: &[(String, Vec<u8>)]) -> Result<(), String> {
    let manifest = files
        .iter()
        .find(|(n, _)| n == CHECKSUM_FILE)
        .map(|(_, b)| b)
        .ok_or_else(|| format!("archive has no {CHECKSUM_FILE}"))?;
    let manifest =
        std::str::from_utf8(manifest).map_err(|_| format!("{CHECKSUM_FILE} is not UTF-8"))?;
    let mut problems = Vec::new();
    let mut covered = vec![CHECKSUM_FILE.to_string()];
    for (i, line) in manifest.lines().enumerate() {
        let lineno = i + 1;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let Some((hex, name)) = line.split_once("  ") else {
            problems.push(format!("{CHECKSUM_FILE}:{lineno}: malformed line `{line}`"));
            continue;
        };
        covered.push(name.to_string());
        match files.iter().find(|(n, _)| n == name) {
            None => problems.push(format!("{CHECKSUM_FILE}:{lineno}: `{name}` is missing")),
            Some((_, bytes)) => {
                let got = sha256_hex(bytes);
                if got != hex {
                    problems.push(format!(
                        "{CHECKSUM_FILE}:{lineno}: `{name}` checksum mismatch \
                         (manifest {hex}, file {got})"
                    ));
                }
            }
        }
    }
    for (name, _) in files {
        if !covered.contains(name) {
            problems.push(format!("`{name}` is not covered by {CHECKSUM_FILE}"));
        }
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("\n"))
    }
}

/// Reads every regular file of `dir` (non-recursive, sorted by name,
/// temp files skipped) as `(name, bytes)` pairs.
///
/// # Errors
///
/// Propagates I/O failures with the offending path.
pub fn read_dir_files(dir: &Path) -> Result<Vec<(String, Vec<u8>)>, String> {
    let mut out = Vec::new();
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
        let path = entry.path();
        if !path.is_file() {
            continue;
        }
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.contains(".tmp") {
            continue;
        }
        let bytes =
            std::fs::read(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        out.push((name, bytes));
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sha256_matches_fips_vectors() {
        assert_eq!(
            sha256_hex(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            sha256_hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            sha256_hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
        // A multi-block message (> 64 bytes).
        let long = vec![b'a'; 1_000];
        assert_eq!(
            sha256_hex(&long),
            "41edece42d63e8d9bf515a9ba6932e1c20cbc9f5a5d134645adb5db1b9737ea3"
        );
    }

    #[test]
    fn pack_unpack_round_trips_binary_payloads() {
        let files = vec![
            ("a.json".to_string(), b"{\"x\":1}\n".to_vec()),
            ("blob.bin".to_string(), vec![0u8, 10, 255, 10, 0]),
            ("empty".to_string(), Vec::new()),
        ];
        let packed = pack(&files);
        assert_eq!(unpack(&packed).unwrap(), files);
    }

    #[test]
    fn unpack_rejects_malformed_containers() {
        for (data, needle) in [
            (b"not-an-archive\nfile a 0\n\n".to_vec(), "header"),
            (b"dmig-archive/1\nrecord a 0\n\n".to_vec(), "file"),
            (b"dmig-archive/1\nfile a xyz\n\n".to_vec(), "bad length"),
            (b"dmig-archive/1\nfile a 99\nshort\n".to_vec(), "truncated"),
            (
                b"dmig-archive/1\nfile ../evil 0\n\n".to_vec(),
                "illegal file name",
            ),
            (
                b"dmig-archive/1\nfile a/b 0\n\n".to_vec(),
                "illegal file name",
            ),
            (
                b"dmig-archive/1\nfile a 1\nx\nfile b 0\n\nfile a 1\ny\n".to_vec(),
                "archive: record 3: `a` is listed twice (first as record 1)",
            ),
        ] {
            let err = unpack(&data).unwrap_err();
            assert!(err.contains(needle), "{err}");
        }
    }

    #[test]
    fn checksums_verify_and_report_line_numbers() {
        let mut files = vec![
            ("a.json".to_string(), b"alpha".to_vec()),
            ("b.json".to_string(), b"beta".to_vec()),
        ];
        let sums = render_checksums(&files);
        files.push((CHECKSUM_FILE.to_string(), sums.into_bytes()));
        verify_checksums(&files).unwrap();

        // Corrupt the second file: line 2 of the manifest names it.
        files[1].1 = b"mutated".to_vec();
        let err = verify_checksums(&files).unwrap_err();
        assert!(err.contains("checksums.sha256:2"), "{err}");
        assert!(err.contains("`b.json` checksum mismatch"), "{err}");

        // A file the manifest never promised is also a violation.
        files[1].1 = b"beta".to_vec();
        files.push(("stray.txt".to_string(), b"?".to_vec()));
        let err = verify_checksums(&files).unwrap_err();
        assert!(err.contains("`stray.txt` is not covered"), "{err}");
    }

    #[test]
    fn missing_manifest_entry_is_reported() {
        let files = vec![
            ("a.json".to_string(), b"alpha".to_vec()),
            (
                CHECKSUM_FILE.to_string(),
                format!(
                    "{}  a.json\n{}  gone.json\n",
                    sha256_hex(b"alpha"),
                    sha256_hex(b"x")
                )
                .into_bytes(),
            ),
        ];
        let err = verify_checksums(&files).unwrap_err();
        assert!(err.contains("checksums.sha256:2"), "{err}");
        assert!(err.contains("`gone.json` is missing"), "{err}");
    }
}
