//! Baseline-artifact loading for the bench binaries.
//!
//! `checkpoint_bench --check` reads a previously recorded JSON report and
//! validates its syntax before comparing against it. The error contract
//! is one line on stderr (prefixed `error: ` by the caller) followed by
//! exit code 2, the bins' shared usage-error convention.

use xpipes_sim::Json;

/// Reads and parses a baseline JSON artifact; callers look the fields
/// they gate on up in the returned document.
///
/// # Errors
///
/// A one-line message (`cannot read baseline …` or `baseline … is not
/// valid JSON: …`); the caller prints it with the `error: ` prefix and
/// exits 2.
pub fn load_baseline(path: &str) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read baseline {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("baseline {path} is not valid JSON: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str, body: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("xpipes_baseline_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, body).unwrap();
        path
    }

    #[test]
    fn valid_baseline_round_trips() {
        let path = tmp("ok.json", "{\"speedup\": 2.5}\n");
        let doc = load_baseline(path.to_str().unwrap()).unwrap();
        assert_eq!(doc.get("speedup").and_then(Json::as_f64), Some(2.5));
    }

    #[test]
    fn missing_file_reports_one_line() {
        let err = load_baseline("/nonexistent/xpipes-baseline.json").unwrap_err();
        assert!(err.starts_with("cannot read baseline"), "{err}");
        assert!(!err.contains('\n'));
    }

    #[test]
    fn invalid_json_reports_one_line() {
        let path = tmp("bad.json", "{not json");
        let err = load_baseline(path.to_str().unwrap()).unwrap_err();
        assert!(err.contains("is not valid JSON"), "{err}");
        assert!(!err.contains('\n'));
    }
}
