//! Run manifests: enough provenance next to every artifact to re-run
//! the command that produced it.
//!
//! A [`RunManifest`] records the producing tool and argument list, the
//! git commit, the RNG seed, the thread count, a fingerprint of the
//! platform table (prices, speed-ups, network) and the run's final
//! metrics. `cws-exp` writes one `<artifact>.manifest.json` next to
//! every `results/` file it emits; `cws-bench` writes one next to
//! `BENCH_kernel.json`. Reproducing a figure is then mechanical: read
//! the manifest, re-issue `command` at `git_sha`, diff the artifact —
//! see `EXPERIMENTS.md` § "Reproducing an artifact from its manifest".

use crate::json::json_str;
use crate::metrics::MetricsSnapshot;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// 64-bit FNV-1a over arbitrary bytes — the stable, dependency-free
/// fingerprint used for the platform table.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Best-effort git commit of the working tree, resolved by reading
/// `.git/HEAD` (and the ref it points at) from `start` upwards — no
/// `git` binary or library needed. Returns `"unknown"` when no
/// repository is found.
#[must_use]
pub fn git_sha(start: &Path) -> String {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let git = d.join(".git");
        if git.is_dir() {
            return resolve_head(&git).unwrap_or_else(|| "unknown".to_string());
        }
        dir = d.parent();
    }
    "unknown".to_string()
}

fn resolve_head(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    if let Some(refname) = head.strip_prefix("ref: ") {
        if let Ok(sha) = std::fs::read_to_string(git.join(refname)) {
            return Some(sha.trim().to_string());
        }
        // The ref may live in packed-refs only.
        let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
        for line in packed.lines() {
            if let Some(sha) = line.strip_suffix(refname) {
                return Some(sha.trim().to_string());
            }
        }
        None
    } else {
        Some(head.to_string())
    }
}

/// Provenance for one produced artifact.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunManifest {
    /// Producing binary (`"cws-exp"`, `"cws-bench"`).
    pub tool: String,
    /// Full argument list to re-issue (binary name excluded).
    pub command: Vec<String>,
    /// Git commit the artifact was produced at.
    pub git_sha: String,
    /// Unix seconds at creation.
    pub created_unix: u64,
    /// RNG seed of the run.
    pub seed: u64,
    /// Worker threads the run used.
    pub threads: usize,
    /// Hex FNV-1a fingerprint of the platform table.
    pub platform_hash: String,
    /// Strategy / policy-pair labels the run evaluated.
    pub policies: Vec<String>,
    /// Workload names the run scheduled.
    pub workloads: Vec<String>,
    /// Spot-market parameters when the run priced spot instances
    /// (e.g. `"fraction=0.3,hazard=0.05"`); `None` for on-demand runs.
    pub spot_market: Option<String>,
    /// File names produced alongside this manifest.
    pub artifacts: Vec<String>,
    /// Final metrics of the run (empty when metrics were disabled).
    pub metrics: MetricsSnapshot,
}

impl RunManifest {
    /// Start a manifest for `tool`, stamping git SHA (searched upward
    /// from the current directory) and creation time.
    #[must_use]
    pub fn new(tool: &str) -> Self {
        let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
        RunManifest {
            tool: tool.to_string(),
            git_sha: git_sha(&cwd),
            created_unix: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0),
            ..RunManifest::default()
        }
    }

    /// Set the platform fingerprint from raw table bytes.
    pub fn set_platform_fingerprint(&mut self, table_bytes: &[u8]) {
        self.platform_hash = format!("{:016x}", fnv1a64(table_bytes));
    }

    /// Encode as pretty-printed JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        fn str_list(items: &[String]) -> String {
            items
                .iter()
                .map(|s| json_str(s))
                .collect::<Vec<_>>()
                .join(",")
        }
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"tool\": {},", json_str(&self.tool));
        let _ = writeln!(out, "  \"command\": [{}],", str_list(&self.command));
        let _ = writeln!(out, "  \"git_sha\": {},", json_str(&self.git_sha));
        let _ = writeln!(out, "  \"created_unix\": {},", self.created_unix);
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"threads\": {},", self.threads);
        let _ = writeln!(
            out,
            "  \"platform_hash\": {},",
            json_str(&self.platform_hash)
        );
        let _ = writeln!(out, "  \"policies\": [{}],", str_list(&self.policies));
        let _ = writeln!(out, "  \"workloads\": [{}],", str_list(&self.workloads));
        if let Some(spot) = &self.spot_market {
            let _ = writeln!(out, "  \"spot_market\": {},", json_str(spot));
        }
        let _ = writeln!(out, "  \"artifacts\": [{}],", str_list(&self.artifacts));
        let _ = writeln!(out, "  \"metrics\": {}", self.metrics.to_json());
        out.push('}');
        out.push('\n');
        out
    }

    /// The manifest path for an artifact: `<artifact>.manifest.json`.
    #[must_use]
    pub fn sibling_path(artifact: &Path) -> PathBuf {
        let mut name = artifact
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        name.push_str(".manifest.json");
        artifact.with_file_name(name)
    }

    /// Write the manifest next to `artifact` and record the artifact's
    /// file name in `self.artifacts` if not already present.
    ///
    /// # Errors
    /// Propagates the underlying I/O error.
    pub fn write_sibling(&mut self, artifact: &Path) -> std::io::Result<PathBuf> {
        let name = artifact
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if !self.artifacts.contains(&name) {
            self.artifacts.push(name);
        }
        let path = Self::sibling_path(artifact);
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn sibling_path_appends_manifest_suffix() {
        assert_eq!(
            RunManifest::sibling_path(Path::new("results/fig4_montage_24.csv")),
            PathBuf::from("results/fig4_montage_24.csv.manifest.json")
        );
    }

    #[test]
    fn manifest_round_trips_key_fields_in_json() {
        let mut m = RunManifest {
            tool: "cws-exp".into(),
            command: vec!["fig4".into(), "--seed".into(), "42".into()],
            git_sha: "deadbeef".into(),
            created_unix: 1,
            seed: 42,
            threads: 4,
            policies: vec!["AllParExceed-m".into()],
            workloads: vec!["montage-24".into()],
            ..RunManifest::default()
        };
        m.set_platform_fingerprint(b"table");
        let json = m.to_json();
        assert!(json.contains("\"tool\": \"cws-exp\""));
        assert!(json.contains("\"command\": [\"fig4\",\"--seed\",\"42\"]"));
        assert!(json.contains("\"seed\": 42"));
        assert!(json.contains("\"platform_hash\": \""));
        assert!(json.ends_with("}\n"));
    }

    #[test]
    fn git_sha_resolves_this_repository() {
        let sha = git_sha(Path::new("."));
        // In the repo this is a 40-hex commit; in a bare tmp dir it
        // degrades to "unknown". Both are acceptable — what matters is
        // that resolution never panics.
        assert!(sha == "unknown" || sha.len() == 40);
    }
}
