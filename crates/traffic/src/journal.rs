//! The campaign journal directory — the only code that knows its layout.
//!
//! `faultcampaign --resume DIR` and `xpipesd` (one directory per
//! campaign under `--state-dir`) both keep a crash-resumable campaign
//! in a directory of this shape, so either tool resumes what the other
//! wrote:
//!
//! | file              | content                                               |
//! |-------------------|-------------------------------------------------------|
//! | `meta.json`       | config fingerprint, grid size, warm-up cycles (pinned on first use, checked on every later open) |
//! | `warm.bin`        | shared warm-start checkpoint, one `XPSN` container (warm campaigns only) |
//! | `point-<i>.bin`   | completed grid point `i`, one `XPSN` container        |
//! | `report.json`     | the merged report, once the grid is complete (`xpipesd`) |
//! | `ledger-appended` | fingerprint of the campaign whose run-ledger record was appended |
//!
//! Every file is written to `<name>.tmp` beside it and renamed into
//! place, so a process killed mid-write leaves the old file or none,
//! never a torn one. Nothing is synced — surviving a host crash is
//! the service durability policy's to set.
//!
//! `warm.bin` and the point files are pure functions of the
//! configuration `meta.json` pins, so a damaged, truncated or
//! mis-indexed one is discarded with a one-line note on stderr and
//! recomputed; a `meta.json` that does not match, or an I/O error other
//! than not-found, is a one-line error.

use std::io::ErrorKind;
use std::path::{Path, PathBuf};

use xpipes_sim::Json;
use xpipes_topology::spec::NocSpec;

use crate::faultcampaign::{warm_checkpoint, CampaignConfig, CompletedPoint, WarmStart};

/// An open journal directory, pinned to one campaign configuration.
#[derive(Debug)]
pub struct Journal {
    dir: PathBuf,
    fingerprint: u64,
    grid: u64,
    warm_cycles: u64,
}

impl Journal {
    /// Opens `dir` (creating it if absent) for the campaign with this
    /// [`config_fingerprint`](crate::faultcampaign::config_fingerprint),
    /// grid size and warm-up length: the first open pins them in
    /// `meta.json`, every later open checks them, so a resume cannot
    /// silently mix grid points from different configurations.
    ///
    /// # Errors
    ///
    /// One line: the directory or `meta.json` cannot be created or
    /// read, `meta.json` is malformed or lacks a field, or it pins a
    /// different campaign.
    pub fn open(
        dir: impl Into<PathBuf>,
        fingerprint: u64,
        grid: u64,
        warm_cycles: u64,
    ) -> Result<Journal, String> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create journal directory {}: {e}", dir.display()))?;
        let journal = Journal {
            dir,
            fingerprint,
            grid,
            warm_cycles,
        };
        match journal.read("meta.json")? {
            Some(bytes) => journal.check_meta(&String::from_utf8_lossy(&bytes))?,
            None => journal.write("meta.json", journal.meta_json().as_bytes())?,
        }
        Ok(journal)
    }

    /// The journal directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn meta_json(&self) -> String {
        Json::object()
            .field("campaign", Json::str("faultcampaign"))
            .field(
                "fingerprint",
                Json::str(format!("{:016x}", self.fingerprint)),
            )
            .field("grid", Json::UInt(self.grid))
            .field("warm_cycles", Json::UInt(self.warm_cycles))
            .build()
            .render()
    }

    fn check_meta(&self, text: &str) -> Result<(), String> {
        let doc = Json::parse(text).map_err(|e| format!("malformed meta.json: {e}"))?;
        let missing = |key: &str| format!("meta.json missing '{key}'");
        let got_fp = doc
            .get("fingerprint")
            .and_then(Json::as_str)
            .ok_or_else(|| missing("fingerprint"))?;
        let got_grid = doc
            .get("grid")
            .and_then(Json::as_u64)
            .ok_or_else(|| missing("grid"))?;
        let got_warm = doc
            .get("warm_cycles")
            .and_then(Json::as_u64)
            .ok_or_else(|| missing("warm_cycles"))?;
        let want = format!("{:016x}", self.fingerprint);
        if got_fp != want {
            return Err(format!(
                "journal was created with a different campaign configuration \
                 (fingerprint {got_fp} != {want}); use a fresh --resume directory"
            ));
        }
        if got_grid != self.grid {
            return Err(format!(
                "journal grid size {got_grid} != {}; use a fresh --resume directory",
                self.grid
            ));
        }
        if got_warm != self.warm_cycles {
            return Err(format!(
                "journal warm-up {got_warm} cycles != --warm-start {}; \
                 use a fresh --resume directory",
                self.warm_cycles
            ));
        }
        Ok(())
    }

    /// The shared warm-start checkpoint every grid point branches off:
    /// loaded from `warm.bin`, or computed on `spec` and journaled when
    /// the file is absent or unusable. `None` for a cold campaign.
    ///
    /// # Errors
    ///
    /// One line: the warm-up run fails, or `warm.bin` cannot be read or
    /// written.
    pub fn warm(&self, spec: &NocSpec, cfg: &CampaignConfig) -> Result<Option<WarmStart>, String> {
        if self.warm_cycles == 0 {
            return Ok(None);
        }
        if let Some(bytes) = self.read("warm.bin")? {
            match WarmStart::from_bytes(bytes) {
                Ok(warm) if warm.cycles() == self.warm_cycles => return Ok(Some(warm)),
                Ok(warm) => self.discard("warm.bin", &format!("covers {} cycles", warm.cycles())),
                Err(e) => self.discard("warm.bin", &e.to_string()),
            }
        }
        let warm = warm_checkpoint(spec, cfg, self.warm_cycles)
            .map_err(|e| format!("warm-up failed: {e}"))?;
        self.write("warm.bin", warm.as_bytes())?;
        Ok(Some(warm))
    }

    /// Every salvageable journaled grid point, in ascending grid order.
    ///
    /// # Errors
    ///
    /// One line when a point file exists but cannot be read.
    pub fn load_points(&self) -> Result<Vec<CompletedPoint>, String> {
        let mut points = Vec::new();
        for index in 0..self.grid {
            let name = point_name(index);
            let Some(bytes) = self.read(&name)? else {
                continue;
            };
            match CompletedPoint::from_bytes(&bytes) {
                Ok(point) if point.index == index => points.push(point),
                Ok(point) => self.discard(&name, &format!("holds grid point {}", point.index)),
                Err(e) => self.discard(&name, &e.to_string()),
            }
        }
        Ok(points)
    }

    /// Journals one completed grid point.
    ///
    /// # Errors
    ///
    /// One line when the point file cannot be written.
    pub fn record(&self, point: &CompletedPoint) -> Result<(), String> {
        self.write(&point_name(point.index), &point.to_bytes())
    }

    /// Journals the merged report's exact bytes.
    ///
    /// # Errors
    ///
    /// One line when the file cannot be written.
    pub fn write_report(&self, bytes: &[u8]) -> Result<(), String> {
        self.write("report.json", bytes)
    }

    /// Whether an earlier run already appended this campaign's run-ledger
    /// record, so a campaign killed *after* the append and resumed to
    /// completion does not append a second one.
    #[must_use]
    pub fn ledger_recorded(&self) -> bool {
        matches!(
            self.read("ledger-appended"),
            Ok(Some(bytes)) if String::from_utf8_lossy(&bytes).trim()
                == format!("{:016x}", self.fingerprint)
        )
    }

    /// Marks the run-ledger record as appended; call right after the
    /// append succeeds.
    ///
    /// # Errors
    ///
    /// One line when the marker cannot be written.
    pub fn mark_ledger_recorded(&self) -> Result<(), String> {
        self.write(
            "ledger-appended",
            format!("{:016x}\n", self.fingerprint).as_bytes(),
        )
    }

    /// Reads one journal file; a file that does not exist is `None`.
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, String> {
        let path = self.dir.join(name);
        match std::fs::read(&path) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == ErrorKind::NotFound => Ok(None),
            Err(e) => Err(format!("cannot read {}: {e}", path.display())),
        }
    }

    /// The one way a journal file reaches disk: `<name>.tmp`, then a
    /// rename over `<name>`.
    fn write(&self, name: &str, bytes: &[u8]) -> Result<(), String> {
        let path = self.dir.join(name);
        let tmp = self.dir.join(format!("{name}.tmp"));
        std::fs::write(&tmp, bytes)
            .and_then(|()| std::fs::rename(&tmp, &path))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    }

    fn discard(&self, name: &str, why: &str) {
        eprintln!(
            "note: discarding journal entry {} ({why}); recomputing",
            self.dir.join(name).display()
        );
    }
}

fn point_name(index: u64) -> String {
    format!("point-{index}.bin")
}
