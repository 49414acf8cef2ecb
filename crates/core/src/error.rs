//! Error types for system configuration.

use std::fmt;

/// Errors building or parsing a [`SystemConfig`](crate::SystemConfig).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// A structural constraint was violated (counts, divisibility, powers
    /// of two, …).
    Invalid {
        /// Human-readable description of the violated constraint.
        what: String,
    },
    /// A configuration string could not be parsed.
    Parse {
        /// The offending input.
        input: String,
        /// What was expected.
        expected: &'static str,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Invalid { what } => write!(f, "invalid configuration: {what}"),
            ConfigError::Parse { input, expected } => {
                write!(f, "cannot parse {input:?}: expected {expected}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Errors from the experiment harness itself — the machinery that runs
/// suite tasks and persists their artifacts, as opposed to the models it
/// runs.
///
/// IO sources are captured as rendered text rather than `std::io::Error`
/// so the type stays `Clone`/`PartialEq` and failures can be aggregated
/// into suite reports and manifests.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HarnessError {
    /// A filesystem operation on an artifact or manifest failed.
    Io {
        /// What was being attempted (`"create dir"`, `"write"`, `"rename"`, …).
        op: &'static str,
        /// The path involved.
        path: String,
        /// The underlying error, rendered.
        message: String,
    },
    /// A suite task panicked.
    TaskPanicked {
        /// The task's artifact name (`fig07`, `table2`, …).
        task: String,
        /// The panic payload, rendered.
        message: String,
    },
    /// A resume manifest could not be understood.
    ManifestCorrupt {
        /// The manifest path.
        path: String,
        /// What was wrong with it.
        what: String,
    },
    /// A task's derived configuration was invalid — the harness-side wrap
    /// of [`ConfigError`] for drivers (like the provisioning sweep) that
    /// build model configurations per leg at run time.
    Config(ConfigError),
}

impl From<ConfigError> for HarnessError {
    fn from(e: ConfigError) -> Self {
        HarnessError::Config(e)
    }
}

impl fmt::Display for HarnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HarnessError::Io { op, path, message } => {
                write!(f, "cannot {op} {path}: {message}")
            }
            HarnessError::TaskPanicked { task, message } => {
                write!(f, "task {task} panicked: {message}")
            }
            HarnessError::ManifestCorrupt { path, what } => {
                write!(f, "resume manifest {path} is unusable ({what})")
            }
            HarnessError::Config(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for HarnessError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let e = ConfigError::Invalid {
            what: "p must equal i*j".into(),
        };
        assert!(e.to_string().contains("i*j"));
        let e = ConfigError::Parse {
            input: "xyz".into(),
            expected: "p/ixjxk KIND/r",
        };
        assert!(e.to_string().contains("xyz"));
    }

    #[test]
    fn harness_errors_name_the_task_and_path() {
        let e = HarnessError::TaskPanicked {
            task: "fig07".into(),
            message: "chaos: injected panic".into(),
        };
        let text = e.to_string();
        assert!(
            text.contains("fig07") && text.contains("chaos: injected panic"),
            "{text}"
        );
        let e = HarnessError::Io {
            op: "write",
            path: "target/experiments/fig04.txt".into(),
            message: "No space left on device".into(),
        };
        assert!(e.to_string().contains("fig04.txt"));
        let e = HarnessError::ManifestCorrupt {
            path: "m.json".into(),
            what: "not JSON".into(),
        };
        let text = e.to_string();
        assert!(
            text.contains("m.json") && text.contains("not JSON"),
            "{text}"
        );
        assert!(
            !text.contains("rerun without"),
            "a cold-started resume is already rebuilding: {text}"
        );
        let e = HarnessError::from(ConfigError::Invalid {
            what: "2p overflows".into(),
        });
        assert!(e.to_string().contains("2p overflows"));
    }
}
