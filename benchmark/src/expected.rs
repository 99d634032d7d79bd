//! Pinned simulated-statistics fingerprints, one file per workload
//! under `expected/`, for the default seed. A change that only makes the
//! simulator or the service faster must leave every one of them equal;
//! a change to the modelled design re-baselines them with `--bless` in a
//! benchmark-only change.

use std::fs;
use std::path::PathBuf;

use xpipes_sim::Json;

use crate::harness::{package_dir, Fingerprint, DEFAULT_SEED};

fn path_of(workload: &str) -> PathBuf {
    package_dir()
        .join("expected")
        .join(format!("{workload}.json"))
}

fn render(workload: &str, fp: &Fingerprint) -> String {
    let mut stats = Json::object();
    for (key, value) in fp {
        stats = stats.field(key, Json::str(value));
    }
    Json::object()
        .field("workload", Json::str(workload))
        .field("seed", Json::UInt(DEFAULT_SEED))
        .field("fingerprint", stats.build())
        .build()
        .render()
}

/// Rewrites the pinned fingerprint of `workload`.
///
/// # Errors
///
/// One line when the file cannot be written.
pub fn bless(workload: &str, fp: &Fingerprint) -> Result<(), String> {
    let path = path_of(workload);
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    fs::write(&path, render(workload, fp))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Compares `fp` with the pinned fingerprint; returns one line per
/// difference (empty when they are equal).
pub fn differences(workload: &str, fp: &Fingerprint) -> Vec<String> {
    let path = path_of(workload);
    let pinned = fs::read_to_string(&path)
        .map_err(|e| e.to_string())
        .and_then(|text| Json::parse(&text));
    let pinned = match pinned {
        Ok(doc) => doc,
        Err(e) => {
            return vec![format!(
                "no usable pinned fingerprint at {} ({e}); run with --bless",
                path.display()
            )]
        }
    };
    let want = |key: &str| {
        pinned
            .get("fingerprint")
            .and_then(|f| f.get(key))
            .and_then(Json::as_str)
    };
    let mut out: Vec<String> = fp
        .iter()
        .filter(|(key, value)| want(key) != Some(value.as_str()))
        .map(|(key, value)| {
            format!(
                "fingerprint {key}: got {value}, pinned {}",
                want(key).unwrap_or("nothing")
            )
        })
        .collect();
    if let Some(Json::Object(fields)) = pinned.get("fingerprint") {
        for (key, _) in fields {
            if !fp.contains_key(key) {
                out.push(format!("fingerprint {key}: pinned but not produced"));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendered_fingerprints_parse_back() {
        let mut fp = Fingerprint::new();
        fp.insert("cycles".into(), "100054".into());
        fp.insert("report_fnv".into(), "00ff00ff00ff00ff".into());
        let doc = Json::parse(&render("kernel_mesh64", &fp)).unwrap();
        assert_eq!(doc.get("seed").and_then(Json::as_u64), Some(DEFAULT_SEED));
        let stats = doc.get("fingerprint").unwrap();
        assert_eq!(stats.get("cycles").and_then(Json::as_str), Some("100054"));
    }

    #[test]
    fn every_workload_has_a_pinned_fingerprint() {
        for name in crate::workloads::NAMES {
            let text = fs::read_to_string(path_of(name)).expect(name);
            let doc = Json::parse(&text).expect(name);
            assert_eq!(doc.get("workload").and_then(Json::as_str), Some(name));
            assert!(matches!(doc.get("fingerprint"), Some(Json::Object(f)) if !f.is_empty()));
        }
    }
}
