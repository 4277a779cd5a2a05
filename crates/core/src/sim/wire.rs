//! Wire codecs: scenario submissions and run reports as canonical JSON.
//!
//! This module is the serialization seam between the in-process
//! [`Scenario`] API and the `sinr-serve` network protocol (and any
//! future checkpointed-sweep or cross-process sharding layer): a
//! [`ScenarioSpec`] is the *data* form of a scenario — every builder
//! knob that is plain data, no closures — and [`encode_run_report`] /
//! [`decode_run_report`] carry results back.
//!
//! Everything encodes through [`sinr_wire::Value`] in **canonical
//! form**: fields in fixed schema order, no whitespace, `u64` exact.
//! Encoding a decoded value reproduces the input bytes, so
//! byte-identity of reports — the determinism contract — survives the
//! wire; `crates/core/tests/wire_golden.rs` pins the bytes of every
//! variant and `crates/serve/tests/server_determinism.rs` pins them
//! across a socket.
//!
//! Enums are tagged objects: `{"kind":"<tag>", ...fields}`; a
//! protocol's tag is its [`ProtocolSpec::name`]. Optional fields are
//! always present, `null` when absent, keeping the schema
//! self-describing.
//!
//! # One declaration per type
//!
//! Each schema type is declared exactly once below, and that one
//! declaration generates both its encoder and its decoder (the private
//! `Wire` trait): `wire_struct!` lists a struct's fields in wire order,
//! `wire_enum!` lists an enum's variants as `Variant = "tag" { fields }`.
//! No tag or field name is written once per direction, so the two
//! cannot drift apart. Only irregular shapes are written by hand: the
//! primitives, [`Coloring`] (a bare array), [`ChurnSpec`] (its model's
//! fields flattened into its own object), the plain-string
//! [`KernelDispatch`] and [`Accumulation`] labels, and the
//! `measurements` map.

use std::collections::BTreeMap;

use sinr_geometry::{Point2, RepairPolicy};
use sinr_phy::{Accumulation, InterferenceMode, KernelDispatch, SinrParams};
use sinr_runtime::{RoundStats, WakeSchedule};
use sinr_wire::Value;

use crate::constants::Constants;
use crate::verify::Coloring;

use super::{
    AdversaryModel, AdversarySpec, ChurnModel, ChurnSpec, CoveragePoint, FaultReport,
    MobilityModel, MobilitySpec, Outcome, ProtocolSpec, RunReport, Scenario, SimError,
    TopologySpec,
};

/// A decode failure: the wire text did not describe a well-formed value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// What was malformed.
    pub message: String,
}

impl WireError {
    fn new(message: impl Into<String>) -> Self {
        WireError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire decode error: {}", self.message)
    }
}

impl std::error::Error for WireError {}

impl From<sinr_wire::ParseError> for WireError {
    fn from(e: sinr_wire::ParseError) -> Self {
        WireError::new(e.to_string())
    }
}

// ---------------------------------------------------------------------
// The codec trait and its primitives
// ---------------------------------------------------------------------

/// Both directions of one schema type's wire form.
trait Wire: Sized {
    fn to_value(&self) -> Value;
    fn from_value(v: &Value) -> Result<Self, WireError>;
}

/// The tag of an enum value: the `kind` of its wire object.
trait Tagged {
    fn tag(&self) -> &'static str;
}

/// The key that carries an enum's tag.
const KIND: &str = "kind";

fn expect<T>(x: Option<T>, what: &str) -> Result<T, WireError> {
    x.ok_or_else(|| WireError::new(format!("not {what}")))
}

/// Decodes field `key` of object `v`, naming the key in any error.
fn read<T: Wire>(v: &Value, key: &str) -> Result<T, WireError> {
    let f = v
        .get(key)
        .ok_or_else(|| WireError::new(format!("missing field '{key}'")))?;
    T::from_value(f).map_err(|e| WireError::new(format!("field '{key}': {}", e.message)))
}

impl Wire for u64 {
    fn to_value(&self) -> Value {
        Value::UInt(*self)
    }
    fn from_value(v: &Value) -> Result<Self, WireError> {
        expect(v.as_u64(), "a u64")
    }
}

impl Wire for usize {
    fn to_value(&self) -> Value {
        Value::UInt(*self as u64)
    }
    fn from_value(v: &Value) -> Result<Self, WireError> {
        expect(v.as_usize(), "a usize")
    }
}

impl Wire for u32 {
    fn to_value(&self) -> Value {
        Value::UInt(u64::from(*self))
    }
    fn from_value(v: &Value) -> Result<Self, WireError> {
        u64::from_value(v)?
            .try_into()
            .map_err(|_| WireError::new("exceeds u32"))
    }
}

impl Wire for f64 {
    fn to_value(&self) -> Value {
        Value::Float(*self)
    }
    fn from_value(v: &Value) -> Result<Self, WireError> {
        expect(v.as_f64(), "a number")
    }
}

impl Wire for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
    fn from_value(v: &Value) -> Result<Self, WireError> {
        expect(v.as_bool(), "a bool")
    }
}

/// `None` is `null`.
impl<T: Wire> Wire for Option<T> {
    fn to_value(&self) -> Value {
        self.as_ref().map_or(Value::Null, T::to_value)
    }
    fn from_value(v: &Value) -> Result<Self, WireError> {
        if v.is_null() {
            Ok(None)
        } else {
            T::from_value(v).map(Some)
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(T::to_value).collect())
    }
    fn from_value(v: &Value) -> Result<Self, WireError> {
        expect(v.as_array(), "an array")?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

/// A pair is a 2-element array.
impl<A: Wire, B: Wire> Wire for (A, B) {
    fn to_value(&self) -> Value {
        Value::Array(vec![self.0.to_value(), self.1.to_value()])
    }
    fn from_value(v: &Value) -> Result<Self, WireError> {
        match expect(v.as_array(), "an array")? {
            [a, b] => Ok((A::from_value(a)?, B::from_value(b)?)),
            _ => Err(WireError::new("not a 2-element array")),
        }
    }
}

/// The `measurements` map: an object keyed by measurement name. A
/// `BTreeMap` iterates in key order, so the bytes are deterministic.
impl Wire for BTreeMap<String, f64> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, x)| (k.clone(), x.to_value()))
                .collect(),
        )
    }
    fn from_value(v: &Value) -> Result<Self, WireError> {
        expect(v.as_object(), "an object")?
            .iter()
            .map(|(k, x)| match f64::from_value(x) {
                Ok(x) => Ok((k.clone(), x)),
                Err(e) => Err(WireError::new(format!("measurement '{k}': {}", e.message))),
            })
            .collect()
    }
}

/// A unit enum that goes on the wire as its bare `label()` string.
fn from_label<T: Copy>(v: &Value, all: &[T], label: fn(T) -> &'static str) -> Result<T, WireError> {
    let s = expect(v.as_str(), "a string")?;
    all.iter()
        .copied()
        .find(|&x| label(x) == s)
        .ok_or_else(|| WireError::new(format!("unknown label '{s}'")))
}

impl Wire for KernelDispatch {
    fn to_value(&self) -> Value {
        Value::str(self.label())
    }
    fn from_value(v: &Value) -> Result<Self, WireError> {
        let all = [KernelDispatch::Auto, KernelDispatch::ForceScalar];
        from_label(v, &all, KernelDispatch::label)
    }
}

impl Wire for Accumulation {
    fn to_value(&self) -> Value {
        Value::str(self.label())
    }
    fn from_value(v: &Value) -> Result<Self, WireError> {
        let all = [Accumulation::F64, Accumulation::F32];
        from_label(v, &all, Accumulation::label)
    }
}

/// A coloring is the bare array of its colors.
impl Wire for Coloring {
    fn to_value(&self) -> Value {
        self.colors.to_value()
    }
    fn from_value(v: &Value) -> Result<Self, WireError> {
        Vec::from_value(v).map(Coloring::new)
    }
}

const EPOCH_ROUNDS: &str = "epoch_rounds";

/// A churn spec flattens its model's fields into its own object.
impl Wire for ChurnSpec {
    fn to_value(&self) -> Value {
        let mut v = self.model.to_value();
        if let Value::Object(fields) = &mut v {
            fields.push((EPOCH_ROUNDS.into(), self.epoch_rounds.to_value()));
        }
        v
    }
    fn from_value(v: &Value) -> Result<Self, WireError> {
        Ok(ChurnSpec {
            model: ChurnModel::from_value(v)?,
            epoch_rounds: read(v, EPOCH_ROUNDS)?,
        })
    }
}

// ---------------------------------------------------------------------
// The schema: one declaration per type
// ---------------------------------------------------------------------

/// Declares structs as wire objects whose fields, in the listed order,
/// are named as the Rust fields.
macro_rules! wire_struct {
    ($($ty:ident { $($field:ident),* $(,)? })*) => {$(
        impl Wire for $ty {
            fn to_value(&self) -> Value {
                Value::Object(vec![
                    $((stringify!($field).into(), Wire::to_value(&self.$field))),*
                ])
            }
            fn from_value(v: &Value) -> Result<Self, WireError> {
                Ok($ty { $($field: read(v, stringify!($field))?),* })
            }
        }
    )*};
}

/// The wire name of an enum variant's field: its Rust name unless
/// renamed with `as "name"`.
macro_rules! wire_name {
    ($field:ident) => {
        stringify!($field)
    };
    ($field:ident as $name:literal) => {
        $name
    };
}

/// Declares enums as tagged wire objects, `{"kind":"<tag>", ...}`, one
/// variant per line: `Variant = "tag" { a, b }` lists a struct
/// variant's fields in wire order (`a as "name"` renames one),
/// `Variant = "tag" (name)` is a one-field tuple variant whose field is
/// `name` on the wire, and `Variant = "tag"` is a unit variant. `what`
/// names the enum in decode errors.
macro_rules! wire_enum {
    ($($ty:ident: $what:literal {
        $($variant:ident = $tag:literal
            $({ $($field:ident $(as $name:literal)?),* })?
            $(($single:ident))?),* $(,)?
    })*) => {$(
        impl Tagged for $ty {
            fn tag(&self) -> &'static str {
                match self {
                    $($ty::$variant { .. } => $tag,)*
                }
            }
        }

        impl Wire for $ty {
            fn to_value(&self) -> Value {
                Value::Object(match self {
                    $($ty::$variant $({ $($field),* })? $(($single))? => vec![
                        (KIND.into(), Value::str($tag)),
                        $($((wire_name!($field $(as $name)?).into(), Wire::to_value($field))),*)?
                        $((stringify!($single).into(), Wire::to_value($single)))?
                    ],)*
                })
            }
            fn from_value(v: &Value) -> Result<Self, WireError> {
                let kind = v.get(KIND).and_then(Value::as_str);
                Ok(match expect(kind, "a tagged object")? {
                    $($tag => $ty::$variant
                        $({ $($field: read(v, wire_name!($field $(as $name)?))?),* })?
                        $((read(v, stringify!($single))?))?,)*
                    other => {
                        return Err(WireError::new(format!(
                            concat!("unknown ", $what, " '{}'"),
                            other
                        )))
                    }
                })
            }
        }
    )*};
}

wire_enum! {
    TopologySpec: "topology kind" {
        UniformSquare = "uniform-square" { n, side },
        ConnectedSquare = "connected-square" { n, side },
        ConnectedSquareDensity = "connected-square-density" { n, density },
        UniformDisk = "uniform-disk" { n, radius },
        Lattice = "lattice" { rows, cols, spacing },
        JitteredLattice = "jittered-lattice" { rows, cols, spacing, amplitude },
        UniformLine = "uniform-line" { n, gap },
        HalvingLine = "halving-line" { n, first_gap, ratio, min_gap },
        GranularityLine = "granularity-line" { n, max_gap, rs_target, min_gap },
        GranularityLineFixedD = "granularity-line-fixed-d" {
            n, max_gap, rs_target, d_hops, min_gap
        },
        ClusterChain = "cluster-chain" { diameter, per_cluster },
        GaussianClusters = "gaussian-clusters" { k, per_cluster, side, sigma },
        CoreAndSatellites = "core-and-satellites" { core_n, sat_n, core_radius, sat_distance },
        Ring = "ring" { n, radius },
        Bridge = "bridge" { blob_n, corridor_n, blob_side },
        TwoTier = "two-tier" { dense_n, ratio, side },
    }

    ProtocolSpec: "protocol kind" {
        NoSBroadcast = "nos-broadcast" { source },
        NoSBroadcastWithEstimate = "nos-broadcast-nu" { source, nu },
        SBroadcast = "s-broadcast" { source },
        SBroadcastWithEstimate = "s-broadcast-nu" { source, nu },
        Coloring = "coloring",
        DaumBroadcast = "daum" { source, granularity },
        FloodBroadcast = "flood" { source, p },
        LocalBroadcast = "local-broadcast" { source },
        ReFloodBroadcast = "re-flood" { source, p, burst_rounds },
        ReFloodBroadcastEstimate = "re-flood-online-nu" { source, nu0, burst_rounds },
        NoSBroadcastOnlineEstimate = "nos-broadcast-online-nu" { source, nu0 },
        SBroadcastOnlineEstimate = "s-broadcast-online-nu" { source, nu0 },
        GpsOracleBroadcast = "gps-oracle" { source },
        AdhocWakeup = "adhoc-wakeup" { schedule },
        EstablishedWakeup = "established-wakeup" { coloring, initiators },
        Consensus = "consensus" { values, bits, d_bound },
        LeaderElection = "leader-election" { d_bound },
        Alert = "alert" { coloring, alerts, d_bound },
    }

    WakeSchedule: "wake-schedule kind" {
        AllAt = "all-at" (round),
        Selected = "selected" (entries),
        Staggered = "staggered" { start, gap },
    }

    InterferenceMode: "interference mode" {
        Exact = "exact",
        Truncated = "truncated" { radius },
        CellAggregate = "cell-aggregate" { near_radius },
        GridNative = "grid-native" { near_radius },
    }

    RepairPolicy: "repair policy" {
        Auto = "auto" { threshold },
        AlwaysFull = "always-full",
        AlwaysIncremental = "always-incremental",
    }

    MobilityModel: "mobility model" {
        RandomWaypoint = "random-waypoint" { speed, pause_epochs },
        Drift = "drift" { speed },
        TeleportChurn = "teleport-churn" { fraction },
    }

    AdversaryModel: "adversary model" {
        CutVertexKill = "cut-vertex-kill" { fraction, at_epoch },
        PhaseCrashBurst = "phase-crash-burst" { kills, every_phases },
        Jam = "jam" { jammers },
        Blackout = "blackout" { fraction, outage_epochs },
    }

    Outcome: "outcome kind" {
        Broadcast = "broadcast",
        Coloring = "coloring" { coloring as "colors" },
        Wakeup = "wakeup" { first_wake, rounds_from_first_wake },
        Consensus = "consensus" { decided, agreement, valid },
        Leader = "leader" { leaders, unique },
        Alert = "alert" { learned_at },
    }
}

wire_struct! {
    Constants {
        c1_cap, c2_mass, p_max, c0, c1, c2, c3, c_prime, c_eps, c_bcast, dissem_factor,
        hop_factor,
    }
    ChurnModel { arrival_rate, mean_lifetime }
    MobilitySpec { model, epoch_rounds }
    AdversarySpec { models, epoch_rounds }
    ScenarioSpec {
        topology, protocol, alpha, beta, noise, eps, gamma, constants, budget, mode,
        physics_threads, record, kernel_dispatch, accumulation, repair, mobility, churn,
        adversary,
    }
    RoundStats { round, transmitters, receptions }
    CoveragePoint { round, informed, live }
    FaultReport { kills, returns, jam_rounds, recovery_rounds, coverage }
    RunReport {
        seed, n, rounds, completed, informed, total_transmissions, outcome, per_round,
        tx_counts, measurements, faults,
    }
}

/// The protocol's wire tag, which is also its [`ProtocolSpec::name`].
pub(super) fn protocol_tag(p: &ProtocolSpec) -> &'static str {
    p.tag()
}

// ---------------------------------------------------------------------
// ScenarioSpec
// ---------------------------------------------------------------------

/// The wire form of a scenario: every [`Scenario`] builder knob that is
/// plain data (topology, protocol, physics parameters, constants,
/// execution knobs, dynamics). Observers are deliberately absent — they
/// are process-local closures; hosts attach their own (e.g. the
/// `sinr-serve` streaming observer) after [`ScenarioSpec::to_scenario`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Deployment family.
    pub topology: TopologySpec,
    /// Protocol to run.
    pub protocol: ProtocolSpec,
    /// Path-loss exponent α.
    pub alpha: f64,
    /// Decode threshold β.
    pub beta: f64,
    /// Ambient noise N.
    pub noise: f64,
    /// Communication-graph slack ε.
    pub eps: f64,
    /// Weak-sensitivity parameter γ.
    pub gamma: f64,
    /// Protocol constants.
    pub constants: Constants,
    /// Round budget (`None` only for fixed-schedule protocols).
    pub budget: Option<u64>,
    /// Interference kernel.
    pub mode: InterferenceMode,
    /// Physics threads per trial.
    pub physics_threads: usize,
    /// Whether to record per-round traces into the report.
    pub record: bool,
    /// Kernel tier of the batched physics kernels (bit-neutral knob).
    pub kernel_dispatch: KernelDispatch,
    /// Precision of the grid-native interference tail sum.
    pub accumulation: Accumulation,
    /// Epoch-boundary structure repair policy.
    pub repair: RepairPolicy,
    /// Motion model, if the topology is dynamic.
    pub mobility: Option<MobilitySpec>,
    /// Population model, if stations churn.
    pub churn: Option<ChurnSpec>,
    /// Fault injection, if adversarial.
    pub adversary: Option<AdversarySpec>,
}

impl ScenarioSpec {
    /// A spec with the default execution knobs ([`SinrParams::default_plane`]
    /// physics, tuned constants, exact interference, one physics thread,
    /// no recording, default repair, no dynamics).
    pub fn new(topology: TopologySpec, protocol: ProtocolSpec) -> Self {
        let params = SinrParams::default_plane();
        ScenarioSpec {
            topology,
            protocol,
            alpha: params.alpha(),
            beta: params.beta(),
            noise: params.noise(),
            eps: params.eps(),
            gamma: params.gamma(),
            constants: Constants::tuned(),
            budget: None,
            mode: InterferenceMode::Exact,
            physics_threads: 1,
            record: false,
            kernel_dispatch: KernelDispatch::default(),
            accumulation: Accumulation::default(),
            repair: RepairPolicy::default(),
            mobility: None,
            churn: None,
            adversary: None,
        }
    }

    /// The spec as a wire value (canonical field order).
    pub fn to_value(&self) -> Value {
        Wire::to_value(self)
    }

    /// Decodes a spec from a wire value.
    ///
    /// # Errors
    ///
    /// [`WireError`] on missing/mistyped fields or unknown enum tags.
    pub fn from_value(v: &Value) -> Result<Self, WireError> {
        Wire::from_value(v)
    }

    /// Canonical text encoding.
    pub fn encode(&self) -> String {
        self.to_value().encode()
    }

    /// Parses and decodes a spec from canonical (or any well-formed)
    /// text.
    ///
    /// # Errors
    ///
    /// [`WireError`] on malformed JSON or schema mismatches.
    pub fn decode(text: &str) -> Result<Self, WireError> {
        Self::from_value(&Value::parse(text)?)
    }

    /// Rebuilds the in-process [`Scenario`] this spec describes. The
    /// caller may attach observers before `build()` — exactly what the
    /// server does with its streaming observer.
    ///
    /// # Errors
    ///
    /// [`SimError::Spec`] when the physics parameters are invalid;
    /// later validation happens at [`Scenario::build`].
    pub fn to_scenario(&self) -> Result<Scenario<Point2>, SimError> {
        let params = SinrParams::builder()
            .alpha(self.alpha)
            .beta(self.beta)
            .noise(self.noise)
            .eps(self.eps)
            .build(self.gamma)
            .map_err(|e| SimError::Spec(format!("invalid SINR parameters: {e}")))?;
        let mut sc = Scenario::new(self.topology.clone())
            .protocol(self.protocol.clone())
            .params(params)
            .constants(self.constants)
            .interference_mode(self.mode)
            .physics_threads(self.physics_threads)
            .kernel_dispatch(self.kernel_dispatch)
            .accumulation(self.accumulation)
            .repair_policy(self.repair);
        if let Some(budget) = self.budget {
            sc = sc.budget(budget);
        }
        if self.record {
            sc = sc.record_rounds();
        }
        if let Some(mobility) = self.mobility {
            sc = sc.mobility(mobility);
        }
        if let Some(churn) = self.churn {
            sc = sc.churn(churn);
        }
        if let Some(adversary) = self.adversary.clone() {
            sc = sc.adversary(adversary);
        }
        Ok(sc)
    }
}

// ---------------------------------------------------------------------
// RunReport
// ---------------------------------------------------------------------

/// A run report as a wire value (canonical field order).
pub fn run_report_to_value(r: &RunReport) -> Value {
    r.to_value()
}

/// Decodes a run report from a wire value.
///
/// # Errors
///
/// [`WireError`] on missing/mistyped fields or unknown enum tags.
pub fn run_report_from_value(v: &Value) -> Result<RunReport, WireError> {
    RunReport::from_value(v)
}

/// Canonical text encoding of a run report — the bytes the server
/// streams; byte-equality of two encodings is exactly report equality.
pub fn encode_run_report(r: &RunReport) -> String {
    run_report_to_value(r).encode()
}

/// Parses and decodes a run report.
///
/// # Errors
///
/// [`WireError`] on malformed JSON or schema mismatches.
pub fn decode_run_report(text: &str) -> Result<RunReport, WireError> {
    run_report_from_value(&Value::parse(text)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_report() -> RunReport {
        let mut measurements = BTreeMap::new();
        measurements.insert("load/mean".to_string(), 0.125);
        measurements.insert("load/max".to_string(), 3.0);
        RunReport {
            seed: u64::MAX - 7,
            n: 40,
            rounds: 611,
            completed: true,
            informed: 39,
            total_transmissions: 12_345,
            outcome: Outcome::Broadcast,
            per_round: Some(vec![
                RoundStats {
                    round: 1,
                    transmitters: 1,
                    receptions: 3,
                },
                RoundStats {
                    round: 2,
                    transmitters: 4,
                    receptions: 0,
                },
            ]),
            tx_counts: Some(vec![7, 0, 2, 9]),
            measurements,
            faults: Some(FaultReport {
                kills: 8,
                returns: 2,
                jam_rounds: 96,
                recovery_rounds: Some(62),
                coverage: vec![
                    CoveragePoint {
                        round: 0,
                        informed: 1,
                        live: 40,
                    },
                    CoveragePoint {
                        round: 24,
                        informed: 17,
                        live: 36,
                    },
                ],
            }),
        }
    }

    #[test]
    fn run_report_roundtrip_bytes_and_value() {
        let report = full_report();
        let text = encode_run_report(&report);
        let back = decode_run_report(&text).expect("canonical report decodes");
        assert_eq!(back, report, "report value corrupted by the wire");
        assert_eq!(
            encode_run_report(&back),
            text,
            "encode -> decode -> encode not byte-identical"
        );
    }

    #[test]
    fn run_report_golden_bytes() {
        // A small report with every Option absent: the canonical bytes
        // are part of the wire contract (changing them breaks clients).
        let report = RunReport {
            seed: 2014,
            n: 3,
            rounds: 5,
            completed: false,
            informed: 2,
            total_transmissions: 9,
            outcome: Outcome::Broadcast,
            per_round: None,
            tx_counts: None,
            measurements: BTreeMap::new(),
            faults: None,
        };
        assert_eq!(
            encode_run_report(&report),
            "{\"seed\":2014,\"n\":3,\"rounds\":5,\"completed\":false,\"informed\":2,\
             \"total_transmissions\":9,\"outcome\":{\"kind\":\"broadcast\"},\
             \"per_round\":null,\"tx_counts\":null,\"measurements\":{},\"faults\":null}"
        );
    }

    #[test]
    fn outcome_variants_roundtrip() {
        let outcomes = vec![
            Outcome::Broadcast,
            Outcome::Coloring {
                coloring: Coloring::new(vec![0.5, 0.25, 0.0]),
            },
            Outcome::Wakeup {
                first_wake: 3,
                rounds_from_first_wake: 41,
            },
            Outcome::Consensus {
                decided: vec![Some(4), None, Some(4)],
                agreement: false,
                valid: false,
            },
            Outcome::Leader {
                leaders: vec![11],
                unique: true,
            },
            Outcome::Alert {
                learned_at: vec![None, Some(17)],
            },
        ];
        for outcome in outcomes {
            let v = outcome.to_value();
            let text = v.encode();
            let back = Outcome::from_value(&Value::parse(&text).unwrap()).unwrap();
            assert_eq!(back, outcome);
            assert_eq!(back.to_value().encode(), text);
        }
    }

    #[test]
    fn scenario_spec_roundtrip() {
        let mut spec = ScenarioSpec::new(
            TopologySpec::UniformSquare { n: 60, side: 2.0 },
            ProtocolSpec::ReFloodBroadcastEstimate {
                source: 0,
                nu0: 60,
                burst_rounds: 48,
            },
        );
        spec.budget = Some(600);
        spec.mode = InterferenceMode::grid_native();
        spec.record = true;
        spec.kernel_dispatch = KernelDispatch::ForceScalar;
        spec.mobility = Some(MobilitySpec::random_waypoint(0.2, 8));
        spec.churn = Some(ChurnSpec::poisson(1.0, 10.0, 8));
        spec.adversary = Some(AdversarySpec::cut_vertex_kill(0.2, 1, 24));
        let text = spec.encode();
        let back = ScenarioSpec::decode(&text).expect("canonical spec decodes");
        assert_eq!(back, spec);
        assert_eq!(back.encode(), text, "spec encode not byte-stable");
        // And it still builds a runnable scenario.
        let report = back.to_scenario().unwrap().build().unwrap().run(7).unwrap();
        assert_eq!(report.seed, 7);
        assert!(report.per_round.is_some(), "record knob survived the wire");
    }

    #[test]
    fn kernel_knobs_roundtrip_and_reject_unknown_tags() {
        let mut spec = ScenarioSpec::new(
            TopologySpec::UniformSquare { n: 20, side: 1.0 },
            ProtocolSpec::NoSBroadcast { source: 0 },
        );
        spec.budget = Some(50);
        assert_eq!(spec.kernel_dispatch, KernelDispatch::Auto);
        assert_eq!(spec.accumulation, Accumulation::F64);
        spec.kernel_dispatch = KernelDispatch::ForceScalar;
        spec.accumulation = Accumulation::F32;
        let text = spec.encode();
        assert!(text.contains("\"kernel_dispatch\":\"scalar\""));
        assert!(text.contains("\"accumulation\":\"f32\""));
        let back = ScenarioSpec::decode(&text).unwrap();
        assert_eq!(back, spec);
        // The F32 build()-rejection applies to wire-decoded scenarios too.
        let sim = back.to_scenario().unwrap().record_rounds().build();
        assert!(matches!(sim, Err(SimError::Spec(_))));
        assert!(back.to_scenario().unwrap().build().is_ok());
        for bad in [
            text.replace(
                "\"kernel_dispatch\":\"scalar\"",
                "\"kernel_dispatch\":\"avx9\"",
            ),
            text.replace("\"accumulation\":\"f32\"", "\"accumulation\":\"f16\""),
        ] {
            assert!(ScenarioSpec::decode(&bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn scenario_spec_covers_every_protocol_tag() {
        // Each ProtocolSpec variant must survive the wire: `name()` is
        // the tag, so a new variant without a codec arm fails here.
        let coloring = Coloring::new(vec![0.5, 0.25]);
        let protocols = vec![
            ProtocolSpec::NoSBroadcast { source: 0 },
            ProtocolSpec::NoSBroadcastWithEstimate { source: 0, nu: 8 },
            ProtocolSpec::SBroadcast { source: 1 },
            ProtocolSpec::SBroadcastWithEstimate { source: 1, nu: 9 },
            ProtocolSpec::Coloring,
            ProtocolSpec::DaumBroadcast {
                source: 0,
                granularity: Some(2.5),
            },
            ProtocolSpec::DaumBroadcast {
                source: 0,
                granularity: None,
            },
            ProtocolSpec::FloodBroadcast { source: 0, p: 0.1 },
            ProtocolSpec::LocalBroadcast { source: 2 },
            ProtocolSpec::ReFloodBroadcast {
                source: 0,
                p: 0.25,
                burst_rounds: 24,
            },
            ProtocolSpec::ReFloodBroadcastEstimate {
                source: 0,
                nu0: 2,
                burst_rounds: 48,
            },
            ProtocolSpec::NoSBroadcastOnlineEstimate { source: 0, nu0: 2 },
            ProtocolSpec::SBroadcastOnlineEstimate { source: 0, nu0: 4 },
            ProtocolSpec::GpsOracleBroadcast { source: 0 },
            ProtocolSpec::AdhocWakeup {
                schedule: WakeSchedule::AllAt(0),
            },
            ProtocolSpec::AdhocWakeup {
                schedule: WakeSchedule::Selected(vec![(0, 3), (4, 1)]),
            },
            ProtocolSpec::AdhocWakeup {
                schedule: WakeSchedule::Staggered { start: 2, gap: 5 },
            },
            ProtocolSpec::EstablishedWakeup {
                coloring: coloring.clone(),
                initiators: vec![true, false],
            },
            ProtocolSpec::Consensus {
                values: vec![3, 1],
                bits: 2,
                d_bound: 4,
            },
            ProtocolSpec::LeaderElection { d_bound: 3 },
            ProtocolSpec::Alert {
                coloring,
                alerts: vec![(0, 5)],
                d_bound: 4,
            },
        ];
        for protocol in protocols {
            let v = protocol.to_value();
            let back = ProtocolSpec::from_value(&Value::parse(&v.encode()).unwrap()).unwrap();
            assert_eq!(back, protocol);
        }
    }

    #[test]
    fn scenario_spec_covers_every_topology_tag() {
        let topologies = vec![
            TopologySpec::UniformSquare { n: 4, side: 1.0 },
            TopologySpec::ConnectedSquare { n: 4, side: 1.0 },
            TopologySpec::ConnectedSquareDensity {
                n: 4,
                density: 40.0,
            },
            TopologySpec::UniformDisk { n: 4, radius: 2.0 },
            TopologySpec::Lattice {
                rows: 2,
                cols: 2,
                spacing: 0.5,
            },
            TopologySpec::JitteredLattice {
                rows: 2,
                cols: 2,
                spacing: 0.5,
                amplitude: 0.1,
            },
            TopologySpec::UniformLine { n: 4, gap: 0.5 },
            TopologySpec::HalvingLine {
                n: 4,
                first_gap: 0.9,
                ratio: 0.5,
                min_gap: 0.01,
            },
            TopologySpec::GranularityLine {
                n: 4,
                max_gap: 0.9,
                rs_target: 8.0,
                min_gap: 0.01,
            },
            TopologySpec::GranularityLineFixedD {
                n: 4,
                max_gap: 0.9,
                rs_target: 8.0,
                d_hops: 3,
                min_gap: 0.01,
            },
            TopologySpec::ClusterChain {
                diameter: 3,
                per_cluster: 8,
            },
            TopologySpec::GaussianClusters {
                k: 2,
                per_cluster: 4,
                side: 2.0,
                sigma: 0.1,
            },
            TopologySpec::CoreAndSatellites {
                core_n: 4,
                sat_n: 2,
                core_radius: 0.5,
                sat_distance: 2.0,
            },
            TopologySpec::Ring { n: 6, radius: 1.0 },
            TopologySpec::Bridge {
                blob_n: 4,
                corridor_n: 2,
                blob_side: 1.0,
            },
            TopologySpec::TwoTier {
                dense_n: 4,
                ratio: 2,
                side: 1.5,
            },
        ];
        for topology in topologies {
            let v = topology.to_value();
            let back = TopologySpec::from_value(&Value::parse(&v.encode()).unwrap()).unwrap();
            assert_eq!(back, topology);
        }
    }

    #[test]
    fn malformed_specs_rejected() {
        assert!(ScenarioSpec::decode("not json").is_err());
        assert!(ScenarioSpec::decode("{}").is_err());
        let mut spec = ScenarioSpec::new(
            TopologySpec::UniformSquare { n: 4, side: 1.0 },
            ProtocolSpec::SBroadcast { source: 0 },
        )
        .encode();
        // Corrupt the protocol tag.
        spec = spec.replace("s-broadcast", "no-such-protocol");
        assert!(ScenarioSpec::decode(&spec).is_err());
        assert!(decode_run_report("{\"seed\":1}").is_err());
    }
}
