//! Committed per-cell output fingerprints.
//!
//! A fingerprint is one text line per cell holding the exact values the
//! cell must reproduce (event counts, detections, float bits). Files live
//! under `fingerprints/` next to this package, one per workload and
//! seed; fingerprints are committed for the default seed and one held-out
//! seed. For any other seed the benchmark still checks that every pass
//! reproduces the first pass's lines exactly.

use std::path::PathBuf;

fn path(workload: &str, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fingerprints")
        .join(format!("{workload}-seed-{seed}.txt"))
}

/// The committed lines for `workload` at `seed`, if a file exists.
///
/// # Errors
///
/// Fails when the file exists but cannot be read.
pub fn load(workload: &str, seed: u64) -> Result<Option<Vec<String>>, String> {
    let p = path(workload, seed);
    match std::fs::read_to_string(&p) {
        Ok(text) => Ok(Some(
            text.lines()
                .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
                .map(str::to_string)
                .collect(),
        )),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(format!("reading {}: {e}", p.display())),
    }
}

/// Writes `lines` as the committed fingerprint for `workload` at `seed`.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn save(workload: &str, seed: u64, lines: &[String]) -> Result<PathBuf, String> {
    let p = path(workload, seed);
    let mut text = format!(
        "# {workload} fingerprint at seed {seed}: one line per cell, exact values.\n\
         # Regenerate only for an intended behaviour change: --bless.\n"
    );
    for l in lines {
        text.push_str(l);
        text.push('\n');
    }
    if let Some(dir) = p.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(&p, text).map_err(|e| format!("writing {}: {e}", p.display()))?;
    Ok(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DEFAULT_SEED, HELD_OUT_SEED};

    #[test]
    fn default_and_held_out_seeds_are_fingerprinted() {
        for workload in ["search-eval", "protocol-long"] {
            for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
                let lines = load(workload, seed).expect("readable").expect("committed");
                assert!(!lines.is_empty(), "{workload} seed {seed}");
            }
        }
    }
}
