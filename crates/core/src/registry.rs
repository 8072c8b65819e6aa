//! The workspace policy registry: every policy of the experiment matrix,
//! buildable from a spec string.
//!
//! [`standard()`] extends [`Registry::base`] (LRU, random, PLRU, SRRIP,
//! RRIP, DIP, TADIP) with the predictor-driven policies defined by this
//! crate and `sdbp-predictors`: TDBP, CDBP, the sampler and its random- and
//! SRRIP-based variants, AIP, and burst-filtered TDBP. The `sampler` entry
//! is parameterized: its `key=value` params are deltas on
//! [`SdbpConfig::paper`], so `sampler` alone is the paper configuration and
//! e.g. `sampler:assoc=16,tables=1,entries=16384,threshold=2` is the
//! Figure 6 "DBRB+sampler" ablation rung.
//!
//! [`PolicyKind`] — the experiment harness's enumeration of the matrix —
//! lives here too; [`PolicyKind::build`] goes through the registry, so the
//! enum and the spec strings can never drift apart.

use crate::config::{SamplerConfig, SdbpConfig, TableConfig};
use crate::policies;
use crate::predictor::SamplingPredictor;
use sdbp_cache::policy::{Lru, Policy};
use sdbp_cache::CacheConfig;
use sdbp_predictors::counting::Aip;
use sdbp_predictors::dbrb::{DbrbConfig, DeadBlockReplacement};
use sdbp_predictors::reftrace::{BurstMode, RefTrace};
use sdbp_replacement::Srrip;

pub use sdbp_replacement::registry::{
    reject_params, BuildFn, PolicyEntry, PolicySpec, Registry, SpecError, REGISTRY_SEED,
};

/// The full policy registry: base replacement policies plus every
/// predictor-driven policy of the paper's experiment matrix.
pub fn standard() -> Registry {
    let mut r = Registry::base();
    r.register(PolicyEntry {
        name: "tdbp",
        label: "TDBP",
        summary: "reftrace dead block replacement and bypass over LRU",
        shardable: false,
        build: |spec, llc, _| {
            reject_params(spec)?;
            Ok(policies::tdbp(llc))
        },
    });
    r.register(PolicyEntry {
        name: "cdbp",
        label: "CDBP",
        summary: "counting (LvP) dead block replacement and bypass over LRU",
        shardable: false,
        build: |spec, llc, _| {
            reject_params(spec)?;
            Ok(policies::cdbp(llc))
        },
    });
    r.register(PolicyEntry {
        name: "sampler",
        label: "Sampler",
        summary: "sampling dead block prediction over LRU (params are deltas \
                  on the paper config, e.g. sampler:assoc=16,tables=1)",
        shardable: false,
        build: |spec, llc, _| Ok(policies::sampler_with_config(llc, parse_sdbp(spec)?)),
    });
    r.register(PolicyEntry {
        name: "random-sampler",
        label: "Random Sampler",
        summary: "sampling dead block prediction over random replacement",
        shardable: false,
        build: |spec, llc, _| {
            reject_params(spec)?;
            Ok(policies::sampler_random(llc))
        },
    });
    r.register(PolicyEntry {
        name: "random-cdbp",
        label: "Random CDBP",
        summary: "counting dead block prediction over random replacement",
        shardable: false,
        build: |spec, llc, _| {
            reject_params(spec)?;
            Ok(policies::cdbp_random(llc))
        },
    });
    r.register(PolicyEntry {
        name: "tdbp-bursts",
        label: "TDBP-bursts",
        summary: "burst-filtered reftrace DBRB over LRU (paper §II-A3)",
        shardable: false,
        build: |spec, llc, _| {
            reject_params(spec)?;
            Ok(Policy::new(DeadBlockReplacement::new(
                llc,
                Lru::new(llc.sets, llc.ways),
                RefTrace::with_mode(llc, BurstMode::Bursts),
                DbrbConfig::default(),
            )))
        },
    });
    r.register(PolicyEntry {
        name: "aip",
        label: "AIP",
        summary: "access interval predictor DBRB over LRU",
        shardable: false,
        build: |spec, llc, _| {
            reject_params(spec)?;
            Ok(Policy::new(DeadBlockReplacement::new(
                llc,
                Lru::new(llc.sets, llc.ways),
                Aip::new(llc),
                DbrbConfig::default(),
            )))
        },
    });
    r.register(PolicyEntry {
        name: "sampler-srrip",
        label: "Sampler/SRRIP",
        summary: "sampling dead block prediction over a default SRRIP cache",
        shardable: false,
        build: |spec, llc, _| {
            reject_params(spec)?;
            Ok(Policy::new(DeadBlockReplacement::new(
                llc,
                Srrip::new(llc),
                SamplingPredictor::paper(llc),
                DbrbConfig::default(),
            )))
        },
    });
    r
}

fn parse_num<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, SpecError> {
    value
        .parse()
        .map_err(|_| SpecError::InvalidValue { key: key.to_owned(), value: value.to_owned() })
}

fn parse_flag(key: &str, value: &str) -> Result<bool, SpecError> {
    match value {
        "true" => Ok(true),
        "false" => Ok(false),
        _ => Err(SpecError::InvalidValue { key: key.to_owned(), value: value.to_owned() }),
    }
}

fn invalid(key: &str, value: &str) -> SpecError {
    SpecError::InvalidValue { key: key.to_owned(), value: value.to_owned() }
}

/// Interprets a `sampler` spec's params as deltas on [`SdbpConfig::paper`].
///
/// Keys: `sampler=none` (PC-only ablation), sampler geometry `sets`,
/// `assoc`, `tag-bits`, `pc-bits`, `dead-victims`, and table organization
/// `tables`, `entries`, `threshold`, `counter-max`.
///
/// # Errors
///
/// Unknown keys, uninterpretable or out-of-range values, and the
/// contradiction `sampler=none` + sampler geometry keys.
pub fn parse_sdbp(spec: &PolicySpec) -> Result<SdbpConfig, SpecError> {
    let mut sampler_none = false;
    let mut s = SamplerConfig::default();
    let mut geometry_touched = false;
    let mut t = TableConfig::skewed();
    for (key, value) in &spec.params {
        match key.as_str() {
            "sampler" => {
                if value != "none" {
                    return Err(invalid(key, value));
                }
                sampler_none = true;
            }
            "sets" => {
                s.sets = parse_num(key, value)?;
                geometry_touched = true;
            }
            "assoc" => {
                s.assoc = parse_num(key, value)?;
                geometry_touched = true;
            }
            "tag-bits" => {
                s.tag_bits = parse_num(key, value)?;
                geometry_touched = true;
            }
            "pc-bits" => {
                s.pc_bits = parse_num(key, value)?;
                geometry_touched = true;
            }
            "dead-victims" => {
                s.dead_block_victims = parse_flag(key, value)?;
                geometry_touched = true;
            }
            "tables" => t.tables = parse_num(key, value)?,
            "entries" => t.entries_per_table = parse_num(key, value)?,
            "threshold" => t.threshold = parse_num(key, value)?,
            "counter-max" => t.counter_max = parse_num(key, value)?,
            _ => {
                return Err(SpecError::UnknownParam {
                    policy: spec.name.clone(),
                    key: key.clone(),
                })
            }
        }
    }
    if sampler_none && geometry_touched {
        return Err(SpecError::Conflict(
            "sampler=none excludes the sampler geometry keys".to_owned(),
        ));
    }
    // Pre-validate what SdbpConfig::validate / Sampler::new would panic on,
    // so a bad spec string is an error, not a crash.
    if t.tables < 1 || !t.entries_per_table.is_power_of_two() || t.counter_max < 1 {
        return Err(invalid("tables", &format!("{}x{}", t.tables, t.entries_per_table)));
    }
    let max_sum = t.tables as u32 * u32::from(t.counter_max);
    if t.threshold < 1 || t.threshold > max_sum {
        return Err(invalid("threshold", &t.threshold.to_string()));
    }
    if !sampler_none {
        if s.sets < 1 || s.assoc < 1 {
            return Err(invalid("sets", &format!("{}x{}", s.sets, s.assoc)));
        }
        if !(1..=16).contains(&s.tag_bits) || !(1..=16).contains(&s.pc_bits) {
            return Err(invalid("tag-bits", &format!("{}/{}", s.tag_bits, s.pc_bits)));
        }
    }
    Ok(SdbpConfig { sampler: (!sampler_none).then_some(s), tables: t })
}

/// Encodes a config as `sampler` spec params: only the fields that differ
/// from [`SdbpConfig::paper`], in canonical key order, so
/// `parse_sdbp(&spec(cfg))` round-trips and the paper config encodes as
/// plain `sampler`.
pub fn sdbp_params(cfg: &SdbpConfig) -> Vec<(String, String)> {
    let mut p: Vec<(String, String)> = Vec::new();
    let mut push = |key: &str, value: String| p.push((key.to_owned(), value));
    match cfg.sampler {
        None => push("sampler", "none".to_owned()),
        Some(s) => {
            let d = SamplerConfig::default();
            if s.sets != d.sets {
                push("sets", s.sets.to_string());
            }
            if s.assoc != d.assoc {
                push("assoc", s.assoc.to_string());
            }
            if s.tag_bits != d.tag_bits {
                push("tag-bits", s.tag_bits.to_string());
            }
            if s.pc_bits != d.pc_bits {
                push("pc-bits", s.pc_bits.to_string());
            }
            if s.dead_block_victims != d.dead_block_victims {
                push("dead-victims", s.dead_block_victims.to_string());
            }
        }
    }
    let d = TableConfig::skewed();
    if cfg.tables.tables != d.tables {
        push("tables", cfg.tables.tables.to_string());
    }
    if cfg.tables.entries_per_table != d.entries_per_table {
        push("entries", cfg.tables.entries_per_table.to_string());
    }
    if cfg.tables.threshold != d.threshold {
        push("threshold", cfg.tables.threshold.to_string());
    }
    if cfg.tables.counter_max != d.counter_max {
        push("counter-max", cfg.tables.counter_max.to_string());
    }
    p
}

/// Every policy the experiment matrix uses, as a buildable description.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PolicyKind {
    /// True LRU (the baseline).
    Lru,
    /// Random replacement.
    Random,
    /// Dynamic insertion policy.
    Dip,
    /// Thread-aware DIP (multi-core).
    Tadip,
    /// DRRIP (single-core "RRIP") / TA-DRRIP (multi-core).
    Rrip,
    /// Reftrace-driven DBRB over LRU (TDBP).
    Tdbp,
    /// Counting-predictor DBRB over LRU (CDBP).
    Cdbp,
    /// Sampling-predictor DBRB over LRU (the paper's "Sampler").
    Sampler,
    /// Sampling-predictor DBRB over random replacement.
    RandomSampler,
    /// Counting-predictor DBRB over random replacement.
    RandomCdbp,
    /// An SDBP ablation variant over LRU, with a display label.
    SamplerVariant(&'static str, SdbpConfig),
    /// Extension: burst-filtered reftrace DBRB over LRU (paper §II-A3).
    TdbpBursts,
    /// Extension: Access Interval Predictor DBRB over LRU.
    Aip,
    /// Extension: SDBP over a default SRRIP cache (policy independence).
    SamplerOverSrrip,
}

impl PolicyKind {
    /// Display name used in result tables (Table V's abbreviations).
    pub fn label(&self) -> &'static str {
        match self {
            PolicyKind::Lru => "LRU",
            PolicyKind::Random => "Random",
            PolicyKind::Dip => "DIP",
            PolicyKind::Tadip => "TADIP",
            PolicyKind::Rrip => "RRIP",
            PolicyKind::Tdbp => "TDBP",
            PolicyKind::Cdbp => "CDBP",
            PolicyKind::Sampler => "Sampler",
            PolicyKind::RandomSampler => "Random Sampler",
            PolicyKind::RandomCdbp => "Random CDBP",
            PolicyKind::SamplerVariant(label, _) => label,
            PolicyKind::TdbpBursts => "TDBP-bursts",
            PolicyKind::Aip => "AIP",
            PolicyKind::SamplerOverSrrip => "Sampler/SRRIP",
        }
    }

    /// The registry spec describing this policy; `kind.build(..)` is
    /// exactly `standard().build(&kind.spec(), ..)`.
    pub fn spec(&self) -> PolicySpec {
        match self {
            PolicyKind::Lru => PolicySpec::plain("lru"),
            PolicyKind::Random => PolicySpec::plain("random"),
            PolicyKind::Dip => PolicySpec::plain("dip"),
            PolicyKind::Tadip => PolicySpec::plain("tadip"),
            PolicyKind::Rrip => PolicySpec::plain("rrip"),
            PolicyKind::Tdbp => PolicySpec::plain("tdbp"),
            PolicyKind::Cdbp => PolicySpec::plain("cdbp"),
            PolicyKind::Sampler => PolicySpec::plain("sampler"),
            PolicyKind::RandomSampler => PolicySpec::plain("random-sampler"),
            PolicyKind::RandomCdbp => PolicySpec::plain("random-cdbp"),
            PolicyKind::SamplerVariant(_, cfg) => {
                PolicySpec { name: "sampler".to_owned(), params: sdbp_params(cfg) }
            }
            PolicyKind::TdbpBursts => PolicySpec::plain("tdbp-bursts"),
            PolicyKind::Aip => PolicySpec::plain("aip"),
            PolicyKind::SamplerOverSrrip => PolicySpec::plain("sampler-srrip"),
        }
    }

    /// Builds the policy for an LLC of geometry `llc` shared by `cores`.
    pub fn build(&self, llc: CacheConfig, cores: usize) -> Policy {
        standard()
            .build(&self.spec(), llc, cores)
            .expect("every PolicyKind spec is registered and valid")
    }

    /// The policy set of Figures 4/5 (LRU-default single-core comparison).
    pub fn lru_comparison() -> Vec<PolicyKind> {
        vec![
            PolicyKind::Tdbp,
            PolicyKind::Cdbp,
            PolicyKind::Dip,
            PolicyKind::Rrip,
            PolicyKind::Sampler,
        ]
    }

    /// The policy set of Figures 7/8 (random-default single-core).
    pub fn random_comparison() -> Vec<PolicyKind> {
        vec![PolicyKind::Random, PolicyKind::RandomCdbp, PolicyKind::RandomSampler]
    }

    /// The Figure 6 ablation ladder, in the paper's plot order.
    pub fn ablation_ladder() -> Vec<PolicyKind> {
        vec![
            PolicyKind::SamplerVariant("DBRB alone", SdbpConfig::dbrb_alone()),
            PolicyKind::SamplerVariant("DBRB+3 tables", SdbpConfig::dbrb_skewed()),
            PolicyKind::SamplerVariant("DBRB+sampler", SdbpConfig::sampler_only()),
            PolicyKind::SamplerVariant("DBRB+sampler+3 tables", SdbpConfig::sampler_skewed()),
            PolicyKind::SamplerVariant("DBRB+sampler+12-way", SdbpConfig::sampler_12way()),
            PolicyKind::SamplerVariant("DBRB+sampler+3 tables+12-way", SdbpConfig::paper()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn llc() -> CacheConfig {
        CacheConfig::new(256, 16)
    }

    #[test]
    fn standard_registry_builds_every_entry() {
        let r = standard();
        assert_eq!(r.entries().len(), 15);
        for entry in r.entries() {
            let p = r.build_str(entry.name, llc(), 4).expect("entry builds bare");
            assert!(!p.name().is_empty(), "{}", entry.name);
        }
    }

    #[test]
    fn ablation_presets_have_the_expected_specs() {
        let cases = [
            (SdbpConfig::paper(), "sampler"),
            (SdbpConfig::dbrb_alone(), "sampler:sampler=none,tables=1,entries=16384,threshold=2"),
            (SdbpConfig::dbrb_skewed(), "sampler:sampler=none"),
            (SdbpConfig::sampler_only(), "sampler:assoc=16,tables=1,entries=16384,threshold=2"),
            (SdbpConfig::sampler_skewed(), "sampler:assoc=16"),
            (SdbpConfig::sampler_12way(), "sampler:tables=1,entries=16384,threshold=2"),
        ];
        for (cfg, expected) in cases {
            let spec = PolicyKind::SamplerVariant("x", cfg).spec();
            assert_eq!(spec.to_string(), expected);
            let reparsed = parse_sdbp(&spec.to_string().parse().expect("parses"));
            assert_eq!(reparsed, Ok(cfg), "{expected} must round-trip");
        }
    }

    #[test]
    fn sampler_rejects_unknown_and_invalid_params() {
        let parse = |s: &str| parse_sdbp(&s.parse().expect("well-formed"));
        assert_eq!(
            parse("sampler:zap=1"),
            Err(SpecError::UnknownParam { policy: "sampler".into(), key: "zap".into() })
        );
        assert_eq!(
            parse("sampler:assoc=many"),
            Err(SpecError::InvalidValue { key: "assoc".into(), value: "many".into() })
        );
        assert_eq!(
            parse("sampler:sampler=off"),
            Err(SpecError::InvalidValue { key: "sampler".into(), value: "off".into() })
        );
        assert_eq!(
            parse("sampler:dead-victims=maybe"),
            Err(SpecError::InvalidValue { key: "dead-victims".into(), value: "maybe".into() })
        );
        assert!(matches!(parse("sampler:sampler=none,assoc=16"), Err(SpecError::Conflict(_))));
        assert!(parse("sampler:threshold=100").is_err(), "unreachable threshold");
        assert!(parse("sampler:entries=4000").is_err(), "non-power-of-two entries");
        assert!(parse("sampler:tag-bits=30").is_err(), "tag wider than its storage");
    }

    #[test]
    fn every_policy_kind_builds_through_the_registry() {
        let mut kinds = PolicyKind::lru_comparison();
        kinds.extend(PolicyKind::random_comparison());
        kinds.extend(PolicyKind::ablation_ladder());
        kinds.extend([
            PolicyKind::Lru,
            PolicyKind::Random,
            PolicyKind::Tadip,
            PolicyKind::TdbpBursts,
            PolicyKind::Aip,
            PolicyKind::SamplerOverSrrip,
        ]);
        let r = standard();
        for k in kinds {
            let spec = k.spec();
            let p = r.build(&spec, llc(), 4).expect("spec builds");
            assert!(!p.name().is_empty());
            assert!(!k.label().is_empty());
            // The enum path and the spec-string path are the same code.
            assert_eq!(k.build(llc(), 4).name(), p.name());
            let reparsed: PolicySpec = spec.to_string().parse().expect("round trip");
            assert_eq!(reparsed, spec);
        }
    }

    #[test]
    fn dead_victims_toggle_round_trips() {
        let cfg = SdbpConfig {
            sampler: Some(SamplerConfig { dead_block_victims: false, ..SamplerConfig::default() }),
            tables: TableConfig::skewed(),
        };
        let spec = PolicyKind::SamplerVariant("x", cfg).spec();
        assert_eq!(spec.to_string(), "sampler:dead-victims=false");
        assert_eq!(parse_sdbp(&spec), Ok(cfg));
    }
}
