//! Campaign specifications as submitted to `xpipesd`.
//!
//! A [`CampaignSpec`] is the JSON document an operator hands to
//! `xpipesadm submit`: which fault models to sweep, how many injection
//! cycles, the seed, optionally a custom error-rate grid and a warm-up
//! budget. The server normalizes it into the [`CampaignConfig`] the
//! `faultcampaign` machinery runs, so a service-run campaign is the
//! *same pure function* of (seed, config) as a one-shot CLI run — which
//! is what makes the merged report byte-identical to the reference.
//!
//! Error rates get special treatment on the wire: the human-facing
//! `rates` field carries decimals, but the spec's canonical wire form
//! adds `rates_bits` — the exact IEEE-754 bit patterns as hex — so a
//! spec relayed between server and workers can never drift from the
//! submitted grid by a parse round-trip, and the journal fingerprint
//! stays stable.

use xpipes_sim::{FaultKind, Json};
use xpipes_traffic::faultcampaign::{
    campaign_spec, config_fingerprint, grid_size, validate_grid, CampaignConfig,
};

/// A normalized campaign submission.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Operator-chosen label (status displays only; the report keeps the
    /// reference network's own name).
    pub name: String,
    /// Fault models to sweep.
    pub faults: Vec<FaultKind>,
    /// Injection cycles per grid point.
    pub cycles: u64,
    /// Master seed.
    pub seed: u64,
    /// Error-rate grid override; `None` keeps the
    /// [`CampaignConfig::new`] defaults.
    pub rates: Option<Vec<f64>>,
    /// Warm-up cycles before branching grid points off a shared `XPSN`
    /// checkpoint; 0 runs every point cold.
    pub warm_start: u64,
    /// Flight-recorder depth override.
    pub flight_depth: Option<usize>,
}

impl CampaignSpec {
    /// A campaign over `faults` with every optional field at its
    /// default: the [`CampaignConfig::new`] rate grid and recorder
    /// depth, every point run cold. Set the public fields to override.
    #[must_use]
    pub(crate) fn new(
        name: impl Into<String>,
        faults: Vec<FaultKind>,
        cycles: u64,
        seed: u64,
    ) -> Self {
        CampaignSpec {
            name: name.into(),
            faults,
            cycles,
            seed,
            rates: None,
            warm_start: 0,
            flight_depth: None,
        }
    }

    /// The campaign configuration this spec normalizes to.
    #[must_use]
    pub fn config(&self) -> CampaignConfig {
        let mut cfg = CampaignConfig::new(self.seed, self.cycles);
        if let Some(rates) = &self.rates {
            cfg.error_rates = rates.clone();
        }
        if let Some(depth) = self.flight_depth {
            cfg.flight_recorder_depth = depth;
        }
        cfg
    }

    /// Grid points this campaign executes (baseline included).
    #[must_use]
    pub fn grid(&self) -> u64 {
        grid_size(&self.faults, &self.config())
    }

    /// The resume-journal config fingerprint — identical to what a
    /// one-shot `faultcampaign --resume` run computes for the same
    /// parameters, so journals and ledger records interoperate.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        config_fingerprint(&campaign_spec(), &self.faults, &self.config())
    }

    /// The canonical wire form: human-readable fields plus exact
    /// `rates_bits` so relaying a spec cannot perturb the grid.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut b = Json::object()
            .field("name", Json::str(&self.name))
            .field(
                "faults",
                Json::Array(self.faults.iter().map(|k| Json::str(k.name())).collect()),
            )
            .field("cycles", Json::UInt(self.cycles))
            .field("seed", Json::UInt(self.seed));
        if let Some(rates) = &self.rates {
            b = b
                .field(
                    "rates",
                    Json::Array(rates.iter().map(|&r| Json::Fixed(r, 4)).collect()),
                )
                .field(
                    "rates_bits",
                    Json::Array(
                        rates
                            .iter()
                            .map(|r| Json::str(format!("{:016x}", r.to_bits())))
                            .collect(),
                    ),
                );
        }
        if self.warm_start > 0 {
            b = b.field("warm_start", Json::UInt(self.warm_start));
        }
        if let Some(depth) = self.flight_depth {
            b = b.field("flight_depth", Json::UInt(depth as u64));
        }
        b.build()
    }

    /// Parses a submission.
    ///
    /// `faults` may be an array of fault-model names or the string
    /// `"all"` (also the default when absent). `rates` accepts decimals;
    /// when the exact `rates_bits` form is present it wins, so a spec
    /// that has been through [`CampaignSpec::to_json`] round-trips
    /// bit-exactly.
    ///
    /// # Errors
    ///
    /// A one-line message naming the offending field.
    pub fn from_json(json: &Json) -> Result<Self, String> {
        let name = match json.get("name") {
            None => "campaign".to_string(),
            Some(v) => v
                .as_str()
                .ok_or("spec field 'name' must be a string")?
                .to_string(),
        };
        let faults = parse_faults(json.get("faults"))?;
        let cycles = parse_u64(json, "cycles", 20_000)?;
        let seed = parse_u64(json, "seed", 7)?;
        let mut spec = CampaignSpec::new(name, faults, cycles, seed);
        spec.warm_start = parse_u64(json, "warm_start", 0)?;
        spec.flight_depth = match json.get("flight_depth") {
            None => None,
            Some(v) => Some(
                v.as_u64()
                    .ok_or("spec field 'flight_depth' must be a non-negative integer")?
                    as usize,
            ),
        };
        spec.rates = parse_rates(json)?;
        validate_grid(&spec.faults, &spec.config().error_rates)?;
        Ok(spec)
    }
}

fn parse_u64(json: &Json, field: &str, default: u64) -> Result<u64, String> {
    match json.get(field) {
        None => Ok(default),
        Some(v) => v
            .as_u64()
            .ok_or_else(|| format!("spec field '{field}' must be a non-negative integer")),
    }
}

fn parse_faults(value: Option<&Json>) -> Result<Vec<FaultKind>, String> {
    let Some(value) = value else {
        return Ok(FaultKind::ALL.to_vec());
    };
    if let Some(s) = value.as_str() {
        if s == "all" {
            return Ok(FaultKind::ALL.to_vec());
        }
        return Err(format!(
            "spec field 'faults' must be \"all\" or an array of fault names, got \"{s}\""
        ));
    }
    let items = value
        .as_array()
        .ok_or("spec field 'faults' must be \"all\" or an array of fault names")?;
    items
        .iter()
        .map(|item| {
            let name = item
                .as_str()
                .ok_or("spec field 'faults' entries must be strings")?;
            FaultKind::from_name(name).ok_or_else(|| format!("unknown fault model '{name}'"))
        })
        .collect()
}

fn parse_rates(json: &Json) -> Result<Option<Vec<f64>>, String> {
    // The exact bit-pattern form wins over the decimal form: it is what
    // the server emits when relaying a spec to workers.
    if let Some(bits) = json.get("rates_bits") {
        let items = bits
            .as_array()
            .ok_or("spec field 'rates_bits' must be an array of hex strings")?;
        let mut rates = Vec::with_capacity(items.len());
        for item in items {
            let hex = item
                .as_str()
                .ok_or("spec field 'rates_bits' entries must be hex strings")?;
            let raw = u64::from_str_radix(hex, 16)
                .map_err(|_| format!("bad rate bit pattern '{hex}'"))?;
            rates.push(f64::from_bits(raw));
        }
        return Ok(Some(rates));
    }
    match json.get("rates") {
        None => Ok(None),
        Some(v) => {
            let items = v
                .as_array()
                .ok_or("spec field 'rates' must be an array of numbers")?;
            let mut rates = Vec::with_capacity(items.len());
            for item in items {
                rates.push(
                    item.as_f64()
                        .ok_or("spec field 'rates' entries must be numbers")?,
                );
            }
            Ok(Some(rates))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_spec_defaults_to_the_full_sweep() {
        let spec = CampaignSpec::from_json(&Json::parse("{}").unwrap()).unwrap();
        assert_eq!(spec.name, "campaign");
        assert_eq!(spec.faults, FaultKind::ALL.to_vec());
        assert_eq!(spec.cycles, 20_000);
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.rates, None);
        assert_eq!(spec.warm_start, 0);
        assert_eq!(spec.config(), CampaignConfig::new(7, 20_000));
        assert_eq!(spec.grid(), 16);
        let built = CampaignSpec::new("campaign", FaultKind::ALL.to_vec(), 20_000, 7);
        assert_eq!(spec, built);
    }

    #[test]
    fn wire_form_round_trips_bit_exactly() {
        let text = r#"{"name":"svc","faults":["flit-corruption","ack-loss"],
                       "cycles":4000,"seed":11,"rates":[0.01,0.03],
                       "warm_start":500,"flight_depth":64}"#;
        let spec = CampaignSpec::from_json(&Json::parse(text).unwrap()).unwrap();
        assert_eq!(
            spec.faults,
            vec![FaultKind::FlitCorruption, FaultKind::AckLoss]
        );
        let relayed = CampaignSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(relayed, spec);
        assert_eq!(relayed.fingerprint(), spec.fingerprint());
        // The decimal parse itself is exact: 0.01 through the JSON
        // parser matches the CLI's own float parse bit-for-bit.
        assert_eq!(spec.rates.as_deref(), Some(&[0.01, 0.03][..]));
    }

    #[test]
    fn fingerprint_matches_the_one_shot_run() {
        let spec = CampaignSpec::from_json(
            &Json::parse(r#"{"faults":"all","cycles":8000,"seed":7}"#).unwrap(),
        )
        .unwrap();
        let cfg = CampaignConfig::new(7, 8000);
        assert_eq!(
            spec.fingerprint(),
            config_fingerprint(&campaign_spec(), &FaultKind::ALL, &cfg)
        );
    }

    #[test]
    fn bad_specs_get_one_line_errors() {
        for (text, needle) in [
            (r#"{"faults":["bogus"]}"#, "unknown fault model"),
            (r#"{"faults":[]}"#, "at least one"),
            (r#"{"faults":["ack-loss","ack-loss"]}"#, "listed twice"),
            (r#"{"cycles":"many"}"#, "cycles"),
            (r#"{"rates":[2.0]}"#, "outside"),
            (r#"{"rates":[]}"#, "at least one"),
            (r#"{"rates_bits":["zz"]}"#, "bit pattern"),
            (r#"{"name":7}"#, "name"),
        ] {
            let err = CampaignSpec::from_json(&Json::parse(text).unwrap()).unwrap_err();
            assert!(err.contains(needle), "{text}: {err}");
            assert!(!err.contains('\n'), "{err}");
        }
    }
}
