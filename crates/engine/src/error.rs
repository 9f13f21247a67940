//! Compilation errors.

use std::fmt;

/// Why a UniFi program could not be compiled for batch execution.
///
/// Plain compilation ([`compile`](crate::CompiledProgram::compile)) accepts
/// every program the interpreter runs and never returns this error; only
/// the opt-in strict gate does. Data problems never surface here: they are
/// flagged rows, exactly as in the interpreter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// Strict-mode compilation
    /// ([`compile_strict`](crate::CompiledProgram::compile_strict)) found
    /// `Error`-severity static diagnostics. The default compile entry
    /// points only *record* diagnostics; this variant exists solely for
    /// callers that opted into rejection.
    RejectedByAnalysis {
        /// One rendered line per `Error`-severity diagnostic.
        findings: Vec<String>,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::RejectedByAnalysis { findings } => {
                write!(
                    f,
                    "static analysis rejected the program ({} error finding{}): {}",
                    findings.len(),
                    if findings.len() == 1 { "" } else { "s" },
                    findings.join("; ")
                )
            }
        }
    }
}

impl std::error::Error for CompileError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_culprit() {
        let e = CompileError::RejectedByAnalysis {
            findings: vec!["error [CLX005] branch 3: extract of token 7".into()],
        };
        let msg = e.to_string();
        assert!(msg.contains("(1 error finding)"));
        assert!(msg.contains("branch 3"));
        assert!(msg.contains("token 7"));

        let e = CompileError::RejectedByAnalysis {
            findings: vec!["a".into(), "b".into()],
        };
        assert!(e.to_string().contains("(2 error findings): a; b"));
    }
}
