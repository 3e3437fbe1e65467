//! Per-check severity configuration.

use crate::diagnostic::CheckId;

/// How to treat a check's findings.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Level {
    /// Skip the check entirely.
    Allow,
    /// Run the check; report findings as warnings.
    Warn,
    /// Run the check; report findings as errors.
    Deny,
}

/// Per-check levels for one lint run.
///
/// The defaults deny everything that breaks a hard structural invariant
/// (`cycle`, `undriven`, `arity`, `duplicate-name`, `fanout`, `delay`)
/// and warn on the KMS conventions that are legal but suspicious
/// (`unreachable`, `not-simple`, `const-anomaly`).
///
/// ```
/// use kms_lint::{CheckId, Level, LintConfig};
/// let config = LintConfig::default().with_level(CheckId::Unreachable, Level::Deny);
/// assert_eq!(config.level(CheckId::Unreachable), Level::Deny);
/// assert_eq!(config.level(CheckId::Cycle), Level::Deny);
/// ```
#[derive(Clone, Debug)]
pub struct LintConfig {
    levels: [Level; CheckId::ALL.len()],
}

impl Default for LintConfig {
    fn default() -> Self {
        let mut config = LintConfig {
            levels: [Level::Deny; CheckId::ALL.len()],
        };
        for check in [
            CheckId::Unreachable,
            CheckId::NotSimple,
            CheckId::ConstAnomaly,
        ] {
            config.set_level(check, Level::Warn);
        }
        config
    }
}

impl LintConfig {
    /// The default configuration with every warn-level check disabled:
    /// only hard invariants are checked. This is what the
    /// `debug-invariants` pipeline hook uses — mid-transform networks
    /// legitimately contain unswept gates and unpropagated constants.
    pub fn errors_only() -> Self {
        let mut config = LintConfig::default();
        for check in CheckId::ALL {
            if config.level(check) == Level::Warn {
                config.set_level(check, Level::Allow);
            }
        }
        config
    }

    /// The level configured for `check`.
    pub fn level(&self, check: CheckId) -> Level {
        self.levels[Self::slot(check)]
    }

    /// Sets the level for `check`.
    pub fn set_level(&mut self, check: CheckId, level: Level) {
        self.levels[Self::slot(check)] = level;
    }

    /// Builder-style [`LintConfig::set_level`].
    pub fn with_level(mut self, check: CheckId, level: Level) -> Self {
        self.set_level(check, level);
        self
    }

    fn slot(check: CheckId) -> usize {
        CheckId::ALL
            .iter()
            .position(|&c| c == check)
            .expect("CheckId::ALL covers every check")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let config = LintConfig::default();
        assert_eq!(config.level(CheckId::Cycle), Level::Deny);
        assert_eq!(config.level(CheckId::Undriven), Level::Deny);
        assert_eq!(config.level(CheckId::Arity), Level::Deny);
        assert_eq!(config.level(CheckId::DuplicateName), Level::Deny);
        assert_eq!(config.level(CheckId::Fanout), Level::Deny);
        assert_eq!(config.level(CheckId::Delay), Level::Deny);
        assert_eq!(config.level(CheckId::Unreachable), Level::Warn);
        assert_eq!(config.level(CheckId::NotSimple), Level::Warn);
        assert_eq!(config.level(CheckId::ConstAnomaly), Level::Warn);
    }

    #[test]
    fn errors_only_disables_warnings() {
        let config = LintConfig::errors_only();
        assert_eq!(config.level(CheckId::Unreachable), Level::Allow);
        assert_eq!(config.level(CheckId::Cycle), Level::Deny);
    }

    #[test]
    fn with_level_overrides() {
        let config = LintConfig::default()
            .with_level(CheckId::Cycle, Level::Allow)
            .with_level(CheckId::NotSimple, Level::Deny);
        assert_eq!(config.level(CheckId::Cycle), Level::Allow);
        assert_eq!(config.level(CheckId::NotSimple), Level::Deny);
    }
}
