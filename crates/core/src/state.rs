//! Clock *states*: a point in the (core, memory) frequency plane.
//!
//! The original methodology measures transitions between core (SM) clock
//! values; [`FreqState`] widens that to a second, optional memory/DRAM
//! dimension. A state with `mem: None` is a *core-only* state — exactly
//! the single-domain model every pre-memory campaign used — and its
//! serialised form is a bare MHz number, byte-identical to the old
//! [`FreqMhz`] encoding, so existing archives, checkpoints and
//! content-addressed run ids are untouched. A state with `mem: Some(..)`
//! serialises as `{"core": c, "mem": m}`.
//!
//! Transitions between two states fall into three [`PairKind`]s by which
//! domains change: core-only, memory-only, or simultaneous (both).

use latest_gpu_sim::freq::FreqMhz;

/// One clock state: a core (SM) frequency plus an optional memory/DRAM
/// frequency.
///
/// Ordering is core first, then memory with `None < Some(_)` — so a sorted
/// state list groups core-only states ahead of 2-D ones and campaign pair
/// enumeration stays deterministic.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FreqState {
    /// SM / graphics clock.
    pub core: FreqMhz,
    /// Memory (DRAM) clock; `None` means the memory domain is not part of
    /// the campaign and stays at the device default.
    pub mem: Option<FreqMhz>,
}

/// Which clock domains change between two [`FreqState`]s — the paper's
/// single pair notion split three ways once a second domain exists.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PairKind {
    /// Only the core (SM) clock changes.
    Core,
    /// Only the memory clock changes.
    Memory,
    /// Both domains change in one transition (driver calls issued
    /// back-to-back, core first).
    Simultaneous,
}

impl PairKind {
    /// Stable lower-case label used in reports and serialised measurements.
    pub fn label(self) -> &'static str {
        match self {
            PairKind::Core => "core",
            PairKind::Memory => "memory",
            PairKind::Simultaneous => "simultaneous",
        }
    }

    /// Parse the [`Self::label`] form back.
    pub fn from_label(s: &str) -> Option<PairKind> {
        match s {
            "core" => Some(PairKind::Core),
            "memory" => Some(PairKind::Memory),
            "simultaneous" => Some(PairKind::Simultaneous),
            _ => None,
        }
    }
}

impl std::fmt::Display for PairKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl FreqState {
    /// A core-only state (the single-domain model).
    pub fn core_only(core: FreqMhz) -> FreqState {
        FreqState { core, mem: None }
    }

    /// A full 2-D state.
    pub fn with_mem(core: FreqMhz, mem: FreqMhz) -> FreqState {
        FreqState {
            core,
            mem: Some(mem),
        }
    }

    /// A core-only state from a raw MHz value — convenience for crates
    /// that don't depend on the simulator's [`FreqMhz`] newtype.
    pub fn core_mhz(mhz: u32) -> FreqState {
        FreqState::core_only(FreqMhz(mhz))
    }

    /// A full 2-D state from raw MHz values.
    pub fn mhz(core: u32, mem: u32) -> FreqState {
        FreqState::with_mem(FreqMhz(core), FreqMhz(mem))
    }

    /// Whether this state carries a memory clock.
    pub fn has_mem(&self) -> bool {
        self.mem.is_some()
    }

    /// The memory clock in MHz, if any.
    pub fn mem_mhz(&self) -> Option<u32> {
        self.mem.map(|m| m.0)
    }

    /// Which domains change going from `self` to `target`, or `None` for
    /// the identity (no domain changes — not a measurable pair).
    pub fn kind_to(&self, target: &FreqState) -> Option<PairKind> {
        let core_changes = self.core != target.core;
        let mem_changes = self.mem != target.mem;
        match (core_changes, mem_changes) {
            (true, false) => Some(PairKind::Core),
            (false, true) => Some(PairKind::Memory),
            (true, true) => Some(PairKind::Simultaneous),
            (false, false) => None,
        }
    }

    /// Compact human label: `"1410"` core-only, `"1410+m810"` with memory.
    pub fn label(&self) -> String {
        match self.mem {
            None => format!("{}", self.core.0),
            Some(m) => format!("{}+m{}", self.core.0, m.0),
        }
    }
}

impl From<FreqMhz> for FreqState {
    fn from(core: FreqMhz) -> FreqState {
        FreqState::core_only(core)
    }
}

impl std::fmt::Display for FreqState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

// Hand-written: shape-dispatched, a bare number for core-only states and
// a `{"core", "mem"}` map otherwise.
impl serde::Serialize for FreqState {
    fn to_value(&self) -> serde::Value {
        match self.mem {
            // Core-only states keep the legacy bare-number encoding so
            // single-domain archives and run ids stay byte-identical.
            None => self.core.to_value(),
            Some(mem) => serde::Value::Map(vec![
                ("core".to_string(), self.core.to_value()),
                ("mem".to_string(), mem.to_value()),
            ]),
        }
    }
}

impl serde::Deserialize for FreqState {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        match value {
            serde::Value::U64(_) | serde::Value::I64(_) => {
                Ok(FreqState::core_only(serde::Deserialize::from_value(value)?))
            }
            serde::Value::Map(entries) => {
                serde::deny_unknown_fields(entries, &["core", "mem"], "FreqState")?;
                let core =
                    serde::Deserialize::from_value(serde::field(entries, "core", "FreqState")?)?;
                let mem = serde::optional_field(entries, "mem")
                    .map(serde::Deserialize::from_value)
                    .transpose()?;
                Ok(FreqState { core, mem })
            }
            other => Err(serde::Error::custom(format!(
                "FreqState must be a bare MHz number or {{\"core\", \"mem\"}}; got {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_only_serialises_as_bare_number() {
        let s = FreqState::core_only(FreqMhz(1410));
        assert_eq!(serde_json::to_string(&s).unwrap(), "1410");
        // Byte-identical to the legacy FreqMhz encoding.
        assert_eq!(
            serde_json::to_string(&s).unwrap(),
            serde_json::to_string(&FreqMhz(1410)).unwrap()
        );
    }

    #[test]
    fn two_domain_state_round_trips_as_map() {
        let s = FreqState::with_mem(FreqMhz(1410), FreqMhz(810));
        let json = serde_json::to_string(&s).unwrap();
        assert!(json.contains("\"core\""), "{json}");
        assert!(json.contains("\"mem\""), "{json}");
        let back: FreqState = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
        let bare: FreqState = serde_json::from_str("705").unwrap();
        assert_eq!(bare, FreqState::core_only(FreqMhz(705)));
    }

    #[test]
    fn ordering_is_core_then_mem_with_none_first() {
        let mut states = vec![
            FreqState::with_mem(FreqMhz(705), FreqMhz(1215)),
            FreqState::core_only(FreqMhz(1410)),
            FreqState::with_mem(FreqMhz(705), FreqMhz(810)),
            FreqState::core_only(FreqMhz(705)),
        ];
        states.sort();
        assert_eq!(
            states,
            vec![
                FreqState::core_only(FreqMhz(705)),
                FreqState::with_mem(FreqMhz(705), FreqMhz(810)),
                FreqState::with_mem(FreqMhz(705), FreqMhz(1215)),
                FreqState::core_only(FreqMhz(1410)),
            ]
        );
    }

    #[test]
    fn pair_kinds_cover_the_three_transition_shapes() {
        let a = FreqState::with_mem(FreqMhz(705), FreqMhz(810));
        let b = FreqState::with_mem(FreqMhz(1410), FreqMhz(810));
        let c = FreqState::with_mem(FreqMhz(705), FreqMhz(1215));
        let d = FreqState::with_mem(FreqMhz(1410), FreqMhz(1215));
        assert_eq!(a.kind_to(&b), Some(PairKind::Core));
        assert_eq!(a.kind_to(&c), Some(PairKind::Memory));
        assert_eq!(a.kind_to(&d), Some(PairKind::Simultaneous));
        assert_eq!(a.kind_to(&a), None);
        for k in [PairKind::Core, PairKind::Memory, PairKind::Simultaneous] {
            assert_eq!(PairKind::from_label(k.label()), Some(k));
        }
    }

    #[test]
    fn labels_read_naturally() {
        assert_eq!(FreqState::core_only(FreqMhz(1410)).label(), "1410");
        assert_eq!(
            FreqState::with_mem(FreqMhz(1410), FreqMhz(810)).label(),
            "1410+m810"
        );
    }
}
