//! Open-loop Bernoulli injectors.
//!
//! Every initiator NI gets an independent injection process: each cycle
//! it starts a new transaction with probability `rate` (packets per cycle
//! per node). Destinations follow the configured [`Pattern`]; requests
//! are a configurable mix of reads and burst writes.

use std::borrow::Cow;

use xpipes::noc::Noc;
use xpipes::XpipesError;
use xpipes_ocp::Request;
use xpipes_sim::snapshot::Verified;
use xpipes_sim::{SimRng, Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use xpipes_topology::spec::NocSpec;
use xpipes_topology::{NiId, NiKind};

use crate::pattern::Pattern;

/// Injector parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InjectorConfig {
    /// Packets per cycle per initiator (offered load).
    pub rate: f64,
    /// Destination pattern.
    pub pattern: Pattern,
    /// Fraction of transactions that are reads (the rest are writes).
    pub read_fraction: f64,
    /// Burst length of write transactions in beats.
    pub write_burst: u32,
    /// Burst length of read transactions in beats.
    pub read_burst: u32,
}

impl InjectorConfig {
    /// A standard evaluation config: given rate and pattern, 50% reads,
    /// 4-beat bursts.
    pub fn new(rate: f64, pattern: Pattern) -> Self {
        InjectorConfig {
            rate,
            pattern,
            read_fraction: 0.5,
            write_burst: 4,
            read_burst: 4,
        }
    }
}

/// Drives a [`Noc`] with open-loop traffic.
#[derive(Debug, Clone)]
pub struct Injector {
    config: InjectorConfig,
    initiators: Vec<NiId>,
    /// Target address windows: (base, size).
    target_windows: Vec<(u64, u64)>,
    rng: SimRng,
    injected: u64,
    rejected_submits: u64,
}

impl Injector {
    /// Builds an injector for the NIs of `spec`.
    ///
    /// # Errors
    ///
    /// [`XpipesError::UnmappedAddress`] when a target has no window.
    pub fn new(spec: &NocSpec, config: InjectorConfig, seed: u64) -> Result<Self, XpipesError> {
        let initiators: Vec<NiId> = spec
            .topology
            .nis_of_kind(NiKind::Initiator)
            .map(|a| a.ni)
            .collect();
        let mut target_windows = Vec::new();
        for t in spec.topology.nis_of_kind(NiKind::Target) {
            let r = spec.range_of(t.ni).ok_or(XpipesError::UnmappedAddress(0))?;
            target_windows.push((r.base, r.size));
        }
        Ok(Injector {
            config,
            initiators,
            target_windows,
            rng: SimRng::seed(seed),
            injected: 0,
            rejected_submits: 0,
        })
    }

    /// Packets injected so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Requests that were not injected: the configured burst could not
    /// form a valid request, or `Noc::submit` refused it (an unmapped
    /// address, an unknown NI, a header field overflow). The initiator's
    /// backlog is unbounded, so a saturated network queues requests and
    /// never rejects them.
    pub fn rejected(&self) -> u64 {
        self.rejected_submits
    }

    /// Offers one cycle of traffic, then advances the network one cycle.
    pub fn step(&mut self, noc: &mut Noc) {
        for idx in 0..self.initiators.len() {
            if !self.rng.chance(self.config.rate) {
                continue;
            }
            let ni = self.initiators[idx];
            let dst =
                self.config
                    .pattern
                    .destination(idx, self.target_windows.len(), &mut self.rng);
            let (base, size) = self.target_windows[dst];
            let offset = (self.rng.next_u64() % (size / 8).max(1)) * 8;
            let addr = base + offset;
            let req = if self.rng.chance(self.config.read_fraction) {
                Request::read(addr, self.config.read_burst)
            } else {
                let data = (0..self.config.write_burst as u64).collect();
                Request::write(addr, data)
            };
            match req {
                Ok(r) => match noc.submit(ni, r) {
                    Ok(()) => self.injected += 1,
                    Err(_) => self.rejected_submits += 1,
                },
                Err(_) => self.rejected_submits += 1,
            }
        }
        noc.step();
    }

    /// Runs `cycles` of injection + simulation.
    pub fn run(&mut self, noc: &mut Noc, cycles: u64) {
        for _ in 0..cycles {
            self.step(noc);
        }
    }

    /// Drains responses at every initiator (call periodically so response
    /// queues don't grow without bound in long runs).
    pub fn drain_responses(&self, noc: &mut Noc) -> u64 {
        let mut drained = 0;
        for &ni in &self.initiators {
            while let Ok(Some(_)) = noc.take_response(ni) {
                drained += 1;
            }
        }
        drained
    }
}

impl Snapshot for Injector {
    /// The injection process is one RNG stream plus two counters; the
    /// config and NI/window lists are structural. They belong to the
    /// injector restored into, and a restore does not compare them with
    /// the injector that was saved.
    fn save_state(&self, w: &mut SnapshotWriter) {
        w.rng(&self.rng);
        w.u64(self.injected);
        w.u64(self.rejected_submits);
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.rng = r.rng()?;
        self.injected = r.u64()?;
        self.rejected_submits = r.u64()?;
        Ok(())
    }
}

/// A warmed `(Noc, Injector)` pair as bytes: the network checkpoint and
/// the injector snapshot taken at the same instant, plus the cycles
/// simulated to get there. Every branching protocol — warm-start
/// campaigns ([`crate::faultcampaign::warm_checkpoint`]), the
/// `cycle_engine` checkpoint file — captures one and restores it into
/// freshly built pairs; this type is the only code that knows how the
/// pair is laid out.
///
/// A `WarmStart` holds one [`Verified`] container: its hash was checked
/// once when the value was built ([`from_bytes`](Self::from_bytes)), or
/// it is this process's own output ([`capture`](Self::capture)). So
/// [`restore_into`](Self::restore_into), run once per branch, hashes
/// nothing.
///
/// Seeds, observers and fault plans stay with the caller: a restore
/// overwrites all mutable state (every RNG stream position included) of
/// a pair the caller assembled. Observers attached **before**
/// [`restore_into`](Self::restore_into) take up their saved state; one
/// the checkpoint does not carry, attached before or after, watches
/// from the restored state on (see `Noc::restore`).
#[derive(Debug, Clone, PartialEq)]
pub struct WarmStart {
    cycles: u64,
    /// `u64 cycles · bytes noc · bytes injector`, each blob a nested
    /// container.
    sealed: Verified,
}

impl WarmStart {
    /// Checkpoints `noc` and `inj` as they stand after `cycles` cycles.
    pub fn capture(noc: &Noc, inj: &Injector, cycles: u64) -> Self {
        let mut injector = SnapshotWriter::new();
        inj.save_state(&mut injector);
        let mut w = SnapshotWriter::new();
        w.u64(cycles);
        w.bytes(&noc.checkpoint());
        w.bytes(&injector.finish());
        WarmStart {
            cycles,
            sealed: w.seal(),
        }
    }

    /// Cycles already executed when the checkpoint was taken.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Loads the captured state into a pair built from the same spec.
    ///
    /// # Errors
    ///
    /// Checkpoint-decode failures: a state captured on a differently
    /// shaped network. The pair may be partly overwritten — discard it.
    pub fn restore_into(&self, noc: &mut Noc, inj: &mut Injector) -> Result<(), XpipesError> {
        let mut r = self.sealed.reader();
        r.u64()?;
        noc.restore_from(r.nested()?)?;
        let mut injector = r.nested()?;
        inj.load_state(&mut injector)?;
        injector.finish()?;
        Ok(r.finish()?)
    }

    /// The warm state as one snapshot container
    /// (`u64 cycles · bytes noc · bytes injector`) — the `warm.bin` of a
    /// campaign journal and the blob `xpipesd` ships to its workers.
    pub fn as_bytes(&self) -> &[u8] {
        self.sealed.as_bytes()
    }

    /// [`as_bytes`](Self::as_bytes), copied.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.as_bytes().to_vec()
    }

    /// [`as_bytes`](Self::as_bytes), without a copy.
    pub fn into_bytes(self) -> Vec<u8> {
        self.sealed.into_bytes()
    }

    /// Verifies and decodes a container produced by
    /// [`WarmStart::as_bytes`]: its hash is checked here, once. An owned
    /// `Vec` moves in; borrowed bytes are copied.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] when the container is damaged or truncated.
    pub fn from_bytes<'a>(bytes: impl Into<Cow<'a, [u8]>>) -> Result<Self, SnapshotError> {
        Self::from_verified(Verified::new(bytes.into().into_owned())?)
    }

    /// Reads a warm state nested as a blob in a verified container (the
    /// `cycle_engine` checkpoint file), which already covered its bytes.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] when the nested container is malformed.
    pub fn read(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Self::from_verified(r.nested_owned()?)
    }

    /// Checks the layout: the cycle count, then the network and injector
    /// containers with sound headers and nothing after them.
    fn from_verified(sealed: Verified) -> Result<Self, SnapshotError> {
        let mut r = sealed.reader();
        let cycles = r.u64()?;
        r.nested()?;
        r.nested()?;
        r.finish()?;
        Ok(WarmStart { cycles, sealed })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpipes_topology::builders::mesh;

    fn spec_2x2() -> NocSpec {
        let mut b = mesh(2, 2).unwrap();
        b.attach_initiator("cpu0", (0, 0)).unwrap();
        b.attach_initiator("cpu1", (1, 0)).unwrap();
        let m0 = b.attach_target("m0", (0, 1)).unwrap();
        let m1 = b.attach_target("m1", (1, 1)).unwrap();
        let mut spec = NocSpec::new("gen", b.into_topology());
        spec.map_address(m0, 0, 1 << 20).unwrap();
        spec.map_address(m1, 1 << 20, 1 << 20).unwrap();
        spec
    }

    #[test]
    fn injects_at_roughly_configured_rate() {
        let spec = spec_2x2();
        let mut noc = Noc::new(&spec).unwrap();
        let mut inj = Injector::new(&spec, InjectorConfig::new(0.05, Pattern::Uniform), 3).unwrap();
        inj.run(&mut noc, 4000);
        // 2 initiators × 0.05 × 4000 = 400 expected.
        let got = inj.injected();
        assert!((300..500).contains(&got), "injected {got}");
    }

    #[test]
    fn traffic_is_delivered() {
        let spec = spec_2x2();
        let mut noc = Noc::new(&spec).unwrap();
        let mut inj = Injector::new(&spec, InjectorConfig::new(0.02, Pattern::Uniform), 5).unwrap();
        inj.run(&mut noc, 2000);
        // Stop injecting, drain.
        noc.run_until_idle(50_000);
        let stats = noc.stats();
        assert!(stats.packets_delivered > 0);
        assert!(inj.drain_responses(&mut noc) > 0, "reads produce responses");
    }

    #[test]
    fn zero_rate_injects_nothing() {
        let spec = spec_2x2();
        let mut noc = Noc::new(&spec).unwrap();
        let mut inj = Injector::new(&spec, InjectorConfig::new(0.0, Pattern::Uniform), 5).unwrap();
        inj.run(&mut noc, 500);
        assert_eq!(inj.injected(), 0);
        assert_eq!(noc.stats().packets_sent, 0);
    }

    #[test]
    fn injector_snapshot_resumes_stream_bit_exactly() {
        let spec = spec_2x2();
        let cfg = InjectorConfig::new(0.08, Pattern::Uniform);
        let mut noc = Noc::new(&spec).unwrap();
        let mut inj = Injector::new(&spec, cfg, 21).unwrap();
        inj.run(&mut noc, 300);
        let warm = WarmStart::capture(&noc, &inj, 300);

        // Twin restored from the snapshot, original keeps running: every
        // subsequent injection decision must match.
        let mut twin_noc = Noc::new(&spec).unwrap();
        let mut twin = Injector::new(&spec, cfg, 999).unwrap(); // seed overwritten
        warm.restore_into(&mut twin_noc, &mut twin).unwrap();
        assert_eq!(twin.injected(), inj.injected());

        inj.run(&mut noc, 500);
        twin.run(&mut twin_noc, 500);
        assert_eq!(inj.injected(), twin.injected());
        assert_eq!(inj.rejected(), twin.rejected());
        assert_eq!(noc.checkpoint(), twin_noc.checkpoint());
    }

    #[test]
    fn warm_start_bytes_round_trip() {
        let spec = spec_2x2();
        let cfg = InjectorConfig::new(0.08, Pattern::Uniform);
        let mut noc = Noc::new(&spec).unwrap();
        let mut inj = Injector::new(&spec, cfg, 5).unwrap();
        inj.run(&mut noc, 128);
        let warm = WarmStart::capture(&noc, &inj, 128);
        assert_eq!(warm.cycles(), 128);
        let bytes = warm.to_bytes();
        assert_eq!(WarmStart::from_bytes(&bytes).unwrap(), warm);

        // Damaged containers decode to an error, never a panic.
        assert!(WarmStart::from_bytes(b"junk").is_err());
        for cut in [0, 7, bytes.len() / 2, bytes.len() - 1] {
            assert!(WarmStart::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
        for at in [0, 9, bytes.len() / 2, bytes.len() - 1] {
            let mut flipped = bytes.clone();
            flipped[at] ^= 0x10;
            assert!(WarmStart::from_bytes(&flipped).is_err(), "flip at {at}");
        }

        // So do containers around a damaged network checkpoint, where a
        // `WarmStart` is built: a flipped byte inside the network blob
        // fails the outer hash, and a truncated blob sealed into a
        // sound container fails its own header.
        let noc_bytes = noc.checkpoint();
        let inj_bytes = {
            let mut w = SnapshotWriter::new();
            inj.save_state(&mut w);
            w.finish()
        };
        let seal = |noc: &[u8], injector: &[u8]| {
            let mut w = SnapshotWriter::new();
            w.u64(128);
            w.bytes(noc);
            w.bytes(injector);
            w.finish()
        };
        assert_eq!(seal(&noc_bytes, &inj_bytes), bytes);
        // Header, cycle count, blob length: the network blob starts here.
        let noc_at = 24 + 8 + 8;
        assert_eq!(bytes[noc_at..noc_at + noc_bytes.len()], noc_bytes[..]);
        let mut flipped = bytes.clone();
        flipped[noc_at + noc_bytes.len() / 2] ^= 0x10;
        assert!(matches!(
            WarmStart::from_bytes(&flipped),
            Err(SnapshotError::IntegrityMismatch { .. })
        ));
        let truncated = seal(&noc_bytes[..noc_bytes.len() / 2], &inj_bytes);
        assert_eq!(
            WarmStart::from_bytes(&truncated),
            Err(SnapshotError::Truncated)
        );

        // A restore refuses a blob that is a sound container but the
        // wrong state...
        let swapped = WarmStart::from_bytes(seal(&noc_bytes, &noc_bytes)).unwrap();
        let mut twin = Injector::new(&spec, cfg, 5).unwrap();
        assert!(swapped
            .restore_into(&mut Noc::new(&spec).unwrap(), &mut twin)
            .is_err());

        // ...and into a differently shaped network.
        let mut b = mesh(3, 3).unwrap();
        b.attach_initiator("cpu0", (0, 0)).unwrap();
        let m0 = b.attach_target("m0", (2, 2)).unwrap();
        let mut other = NocSpec::new("other", b.into_topology());
        other.map_address(m0, 0, 1 << 20).unwrap();
        let mut twin = Injector::new(&other, cfg, 5).unwrap();
        assert!(warm
            .restore_into(&mut Noc::new(&other).unwrap(), &mut twin)
            .is_err());
    }

    #[test]
    fn write_only_config() {
        let spec = spec_2x2();
        let mut noc = Noc::new(&spec).unwrap();
        let mut cfg = InjectorConfig::new(0.05, Pattern::Neighbor);
        cfg.read_fraction = 0.0;
        cfg.write_burst = 2;
        let mut inj = Injector::new(&spec, cfg, 7).unwrap();
        inj.run(&mut noc, 1000);
        noc.run_until_idle(20_000);
        // Posted writes produce no responses.
        assert_eq!(inj.drain_responses(&mut noc), 0);
        assert!(noc.stats().packets_delivered > 0);
    }
}
