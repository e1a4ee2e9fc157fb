//! Typed errors for the W5 engine: what used to be scattered
//! `expect`/panic sites in query plans.

use nqp_datagen::tpch::dates::DateError;
use nqp_sim::SimError;
use std::fmt;

/// Why a query failed to plan or execute.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// A date literal in the plan failed to parse or construct.
    Date(DateError),
    /// The simulator faulted (capacity, injected failure, timeout).
    Sim(SimError),
    /// Query number outside 1–22.
    UnknownQuery {
        /// The number that was requested.
        qnum: usize,
    },
    /// A plan named a table the schema does not have.
    UnknownTable {
        /// The name that was asked for.
        table: String,
    },
    /// A plan named a column its table does not have.
    UnknownColumn {
        /// The table that was searched.
        table: String,
        /// The name that was asked for.
        column: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Date(e) => write!(f, "bad date literal in plan: {e}"),
            EngineError::Sim(e) => write!(f, "simulation fault during query: {e}"),
            EngineError::UnknownQuery { qnum } => {
                write!(f, "TPC-H has 22 queries; got Q{qnum}")
            }
            EngineError::UnknownTable { table } => write!(f, "unknown TPC-H table `{table}`"),
            EngineError::UnknownColumn { table, column } => {
                write!(f, "TPC-H table `{table}` has no column `{column}`")
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Date(e) => Some(e),
            EngineError::Sim(e) => Some(e),
            EngineError::UnknownQuery { .. }
            | EngineError::UnknownTable { .. }
            | EngineError::UnknownColumn { .. } => None,
        }
    }
}

impl From<DateError> for EngineError {
    fn from(e: DateError) -> Self {
        EngineError::Date(e)
    }
}

impl From<SimError> for EngineError {
    fn from(e: SimError) -> Self {
        EngineError::Sim(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: EngineError =
            nqp_datagen::tpch::dates::parse("nope").expect_err("malformed").into();
        assert!(matches!(e, EngineError::Date(_)));
        assert!(e.to_string().contains("date literal"));
        let e: EngineError = SimError::OutOfMemory { node: 0, requested_pages: 1 }.into();
        assert!(e.to_string().contains("simulation fault"));
        assert!(EngineError::UnknownQuery { qnum: 23 }.to_string().contains("22 queries"));
    }
}
