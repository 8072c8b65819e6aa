//! The policy plane: textual policy specs and the constructor registry.
//!
//! A [`PolicySpec`] is the parsed form of a spec string such as `lru` or
//! `sampler:assoc=16,tables=1` — a kebab-case policy name plus `key=value`
//! parameters. A [`Registry`] maps spec names to [`PolicyEntry`] rows, each
//! carrying the display label and a constructor; [`Registry::base`] holds
//! the policies this crate can build by itself (LRU, random, PLRU, SRRIP,
//! RRIP, DIP, TADIP), and `sdbp::registry::standard()` extends it with the
//! predictor-driven policies defined higher in the stack.
//!
//! Specs round-trip: `spec.to_string().parse()` reproduces the spec, so
//! result tables and golden fixtures can be keyed by the string form.

use crate::{Dip, Drrip, PseudoLru, Random, Srrip, Tadip};
use sdbp_cache::policy::{Lru, Policy};
use sdbp_cache::CacheConfig;
use std::fmt;
use std::str::FromStr;

/// Seed for randomized policies built through the registry, fixed so every
/// spec string denotes one deterministic policy.
pub const REGISTRY_SEED: u64 = 0xd1ce;

/// A parsed policy spec: a policy name plus `key=value` parameters.
///
/// ```
/// use sdbp_replacement::registry::PolicySpec;
///
/// let spec: PolicySpec = "sampler:assoc=16,tables=1".parse().unwrap();
/// assert_eq!(spec.name, "sampler");
/// assert_eq!(spec.params.len(), 2);
/// assert_eq!(spec.to_string(), "sampler:assoc=16,tables=1");
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PolicySpec {
    /// The registry name (kebab-case, e.g. `"sampler"`).
    pub name: String,
    /// Parameters in spec order, each a `(key, value)` pair.
    pub params: Vec<(String, String)>,
}

impl PolicySpec {
    /// A spec with no parameters.
    pub fn plain(name: &str) -> Self {
        PolicySpec { name: name.to_owned(), params: Vec::new() }
    }

    /// The value of parameter `key`, if present.
    pub fn param(&self, key: &str) -> Option<&str> {
        self.params.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

fn valid_word(s: &str) -> bool {
    !s.is_empty() && s.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
}

impl FromStr for PolicySpec {
    type Err = SpecError;

    fn from_str(s: &str) -> Result<Self, SpecError> {
        let (name, rest) = match s.split_once(':') {
            Some((n, r)) => (n, Some(r)),
            None => (s, None),
        };
        if !valid_word(name) {
            return Err(SpecError::BadName(name.to_owned()));
        }
        let mut params = Vec::new();
        if let Some(rest) = rest {
            for part in rest.split(',') {
                let Some((key, value)) = part.split_once('=') else {
                    return Err(SpecError::BadParam(part.to_owned()));
                };
                if !valid_word(key) || value.is_empty() {
                    return Err(SpecError::BadParam(part.to_owned()));
                }
                params.push((key.to_owned(), value.to_owned()));
            }
        }
        Ok(PolicySpec { name: name.to_owned(), params })
    }
}

impl fmt::Display for PolicySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)?;
        for (i, (k, v)) in self.params.iter().enumerate() {
            f.write_str(if i == 0 { ":" } else { "," })?;
            write!(f, "{k}={v}")?;
        }
        Ok(())
    }
}

/// Why a spec string could not be parsed or built.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SpecError {
    /// The policy name is empty or contains invalid characters.
    BadName(String),
    /// A parameter is not a well-formed `key=value` pair.
    BadParam(String),
    /// No registry entry has this name.
    UnknownPolicy(String),
    /// The policy does not understand this parameter.
    UnknownParam {
        /// The policy consulted.
        policy: String,
        /// The offending key.
        key: String,
    },
    /// The parameter value could not be interpreted.
    InvalidValue {
        /// The parameter key.
        key: String,
        /// The uninterpretable value.
        value: String,
    },
    /// The policy takes no parameters but some were given.
    UnexpectedParams(String),
    /// Two parameters contradict each other.
    Conflict(String),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::BadName(name) => {
                write!(f, "bad policy name {name:?} (want kebab-case, e.g. \"sampler\")")
            }
            SpecError::BadParam(part) => {
                write!(f, "bad parameter {part:?} (want key=value)")
            }
            SpecError::UnknownPolicy(name) => {
                write!(f, "unknown policy {name:?} (see `sdbp-repro list-policies`)")
            }
            SpecError::UnknownParam { policy, key } => {
                write!(f, "policy {policy:?} has no parameter {key:?}")
            }
            SpecError::InvalidValue { key, value } => {
                write!(f, "invalid value {value:?} for parameter {key:?}")
            }
            SpecError::UnexpectedParams(policy) => {
                write!(f, "policy {policy:?} takes no parameters")
            }
            SpecError::Conflict(msg) => write!(f, "conflicting parameters: {msg}"),
        }
    }
}

impl std::error::Error for SpecError {}

/// Constructor signature of a registry entry: the full spec (for
/// parameterized policies), the LLC geometry, and the core count. Every
/// entry builds its concrete policy type with [`Policy::new`], so the
/// replay loop calls it statically.
pub type BuildFn = fn(&PolicySpec, CacheConfig, usize) -> Result<Policy, SpecError>;

/// One buildable policy.
#[derive(Clone, Debug)]
pub struct PolicyEntry {
    /// Registry name, the spec's first word (kebab-case).
    pub name: &'static str,
    /// Display label used in result tables (e.g. `"LRU"`).
    pub label: &'static str,
    /// One-line description for `list-policies`.
    pub summary: &'static str,
    /// Whether the policy's state is **set-local**, so a replay may be
    /// sharded by set range (`sdbp_cache::kernel`) with bit-identical
    /// results. Policies with global state — a shared RNG draw sequence,
    /// set-dueling PSEL counters over leader sets, predictor tables
    /// trained by every set — observe cross-set interleaving and must
    /// replay serially; see DESIGN.md §13 for the per-policy analysis.
    pub shardable: bool,
    /// The constructor.
    pub build: BuildFn,
}

/// Fails unless the spec carries no parameters; the guard every
/// non-parameterized entry calls first.
pub fn reject_params(spec: &PolicySpec) -> Result<(), SpecError> {
    if spec.params.is_empty() {
        Ok(())
    } else {
        Err(SpecError::UnexpectedParams(spec.name.clone()))
    }
}

/// A name → constructor table for replacement policies.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    entries: Vec<PolicyEntry>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The policies this crate can build by itself.
    pub fn base() -> Self {
        let mut r = Registry::new();
        r.register(PolicyEntry {
            name: "lru",
            label: "LRU",
            summary: "true least-recently-used (the single-core baseline)",
            shardable: true,
            build: |spec, llc, _| {
                reject_params(spec)?;
                Ok(Policy::new(Lru::new(llc.sets, llc.ways)))
            },
        });
        r.register(PolicyEntry {
            name: "random",
            label: "Random",
            summary: "uniform random victim selection (seeded)",
            shardable: false,
            build: |spec, llc, _| {
                reject_params(spec)?;
                Ok(Policy::new(Random::new(llc, REGISTRY_SEED)))
            },
        });
        r.register(PolicyEntry {
            name: "plru",
            label: "PLRU",
            summary: "tree pseudo-LRU (hardware LRU approximation)",
            shardable: true,
            build: |spec, llc, _| {
                reject_params(spec)?;
                Ok(Policy::new(PseudoLru::new(llc)))
            },
        });
        r.register(PolicyEntry {
            name: "srrip",
            label: "SRRIP",
            summary: "static re-reference interval prediction",
            shardable: true,
            build: |spec, llc, _| {
                reject_params(spec)?;
                Ok(Policy::new(Srrip::new(llc)))
            },
        });
        r.register(PolicyEntry {
            name: "rrip",
            label: "RRIP",
            summary: "DRRIP (TA-DRRIP when sharing cores)",
            shardable: false,
            build: |spec, llc, cores| {
                reject_params(spec)?;
                Ok(Policy::new(Drrip::new(llc, cores, REGISTRY_SEED)))
            },
        });
        r.register(PolicyEntry {
            name: "dip",
            label: "DIP",
            summary: "dynamic insertion policy (LRU vs BIP dueling)",
            shardable: false,
            build: |spec, llc, _| {
                reject_params(spec)?;
                Ok(Policy::new(Dip::new(llc, REGISTRY_SEED)))
            },
        });
        r.register(PolicyEntry {
            name: "tadip",
            label: "TADIP",
            summary: "thread-aware DIP (per-core insertion duels)",
            shardable: false,
            build: |spec, llc, cores| {
                reject_params(spec)?;
                Ok(Policy::new(Tadip::new(llc, cores, REGISTRY_SEED)))
            },
        });
        r
    }

    /// Adds an entry.
    ///
    /// # Panics
    ///
    /// Panics if an entry with the same name is already registered.
    pub fn register(&mut self, entry: PolicyEntry) {
        assert!(
            self.find(entry.name).is_none(),
            "policy {:?} registered twice",
            entry.name
        );
        self.entries.push(entry);
    }

    /// All entries, in registration order.
    pub fn entries(&self) -> &[PolicyEntry] {
        &self.entries
    }

    /// The entry named `name`, if registered.
    pub fn find(&self, name: &str) -> Option<&PolicyEntry> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// Builds the policy a parsed spec describes.
    ///
    /// # Errors
    ///
    /// [`SpecError::UnknownPolicy`] when no entry matches, or whatever the
    /// entry's constructor rejects (unknown/invalid/conflicting params).
    pub fn build(
        &self,
        spec: &PolicySpec,
        llc: CacheConfig,
        cores: usize,
    ) -> Result<Policy, SpecError> {
        let entry = self
            .find(&spec.name)
            .ok_or_else(|| SpecError::UnknownPolicy(spec.name.clone()))?;
        (entry.build)(spec, llc, cores)
    }

    /// Parses and builds a spec string in one step.
    ///
    /// # Errors
    ///
    /// Parse errors from [`PolicySpec::from_str`], then build errors from
    /// [`Registry::build`].
    pub fn build_str(
        &self,
        spec: &str,
        llc: CacheConfig,
        cores: usize,
    ) -> Result<Policy, SpecError> {
        self.build(&spec.parse()?, llc, cores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_round_trip_through_display() {
        for text in ["lru", "sampler:assoc=16", "sampler:sampler=none,tables=1,entries=16384"] {
            let spec: PolicySpec = text.parse().expect("valid spec");
            assert_eq!(spec.to_string(), text);
            let reparsed: PolicySpec = spec.to_string().parse().expect("round trip");
            assert_eq!(reparsed, spec);
        }
    }

    #[test]
    fn malformed_specs_are_rejected() {
        assert_eq!("".parse::<PolicySpec>(), Err(SpecError::BadName(String::new())));
        assert_eq!("LRU".parse::<PolicySpec>(), Err(SpecError::BadName("LRU".into())));
        assert_eq!(
            "sampler:assoc".parse::<PolicySpec>(),
            Err(SpecError::BadParam("assoc".into()))
        );
        assert_eq!(
            "sampler:assoc=".parse::<PolicySpec>(),
            Err(SpecError::BadParam("assoc=".into()))
        );
        assert_eq!(
            "sampler:=16".parse::<PolicySpec>(),
            Err(SpecError::BadParam("=16".into()))
        );
        assert_eq!(
            "sampler:assoc=16,,".parse::<PolicySpec>(),
            Err(SpecError::BadParam(String::new()))
        );
        assert!("bad name".parse::<PolicySpec>().is_err());
    }

    #[test]
    fn param_lookup_finds_values() {
        let spec: PolicySpec = "sampler:assoc=16,tables=1".parse().unwrap();
        assert_eq!(spec.param("assoc"), Some("16"));
        assert_eq!(spec.param("tables"), Some("1"));
        assert_eq!(spec.param("sets"), None);
    }

    #[test]
    fn base_registry_builds_every_entry() {
        let r = Registry::base();
        let llc = CacheConfig::new(64, 8);
        assert_eq!(r.entries().len(), 7);
        for entry in r.entries() {
            let p = r.build_str(entry.name, llc, 2).expect("base entry builds");
            assert!(!p.name().is_empty());
            assert!(!entry.label.is_empty());
            assert!(!entry.summary.is_empty());
        }
    }

    #[test]
    fn base_policies_reject_params() {
        let r = Registry::base();
        let llc = CacheConfig::new(64, 8);
        assert_eq!(
            r.build_str("lru:x=1", llc, 1).err(),
            Some(SpecError::UnexpectedParams("lru".into()))
        );
    }

    #[test]
    fn unknown_policy_is_reported() {
        let r = Registry::base();
        let llc = CacheConfig::new(64, 8);
        assert_eq!(
            r.build_str("belady", llc, 1).err(),
            Some(SpecError::UnknownPolicy("belady".into()))
        );
    }

    #[test]
    fn shardable_flags_match_the_policy_state_model() {
        let r = Registry::base();
        for entry in r.entries() {
            let set_local = matches!(entry.name, "lru" | "plru" | "srrip");
            assert_eq!(
                entry.shardable, set_local,
                "{}: shardable must mean set-local state (global RNG/PSEL state cannot shard)",
                entry.name
            );
        }
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_names_rejected() {
        let mut r = Registry::base();
        r.register(PolicyEntry {
            name: "lru",
            label: "LRU2",
            summary: "dup",
            shardable: true,
            build: |spec, llc, _| {
                reject_params(spec)?;
                Ok(Policy::new(Lru::new(llc.sets, llc.ways)))
            },
        });
    }

    #[test]
    fn error_messages_name_the_problem() {
        assert!(SpecError::UnknownPolicy("zap".into()).to_string().contains("zap"));
        assert!(SpecError::UnexpectedParams("lru".into()).to_string().contains("lru"));
        assert!(
            SpecError::InvalidValue { key: "assoc".into(), value: "x".into() }
                .to_string()
                .contains("assoc")
        );
    }
}
