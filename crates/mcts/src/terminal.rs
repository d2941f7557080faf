//! Terminal-state rules of the combinatorial MCTS (Section 3.4).
//!
//! A node is terminal — no child will be explored — when any of:
//!
//! 1. it sits at level `n − 2` (the Steiner budget is exhausted),
//! 2. its last action **increased** the routing cost,
//! 3. the routing cost stayed the same for three consecutive actions
//!    ([`MctsConfig::max_flat_run`](crate::config::MctsConfig) in general).
//!
//! These rules prune combinations that cannot help, which is where much of
//! the search-efficiency win over conventional MCTS comes from.

/// Why a node is terminal (or [`TerminalReason::NotTerminal`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TerminalReason {
    /// The node is expandable.
    NotTerminal,
    /// Criterion 1: `n − 2` Steiner points already selected.
    BudgetExhausted,
    /// Criterion 2: the last action increased the routing cost.
    CostIncreased,
    /// Criterion 3: the cost was flat for the configured number of
    /// consecutive actions.
    CostFlat,
    /// No valid action remains (every lower-priority vertex is occupied).
    NoActions,
}

impl TerminalReason {
    /// Whether the reason marks a terminal node.
    pub fn is_terminal(self) -> bool {
        self != TerminalReason::NotTerminal
    }
}

/// Evaluates the terminal rules for a node.
///
/// * `level` — number of selected Steiner points in the state.
/// * `budget` — `n − 2` for an `n`-pin layout.
/// * `parent_cost` — routing cost of the parent state (`None` at the root).
/// * `cost` — routing cost of this state.
/// * `flat_run` — number of consecutive ancestors (including this node's
///   action) whose action left the cost unchanged.
/// * `max_flat_run` — criterion-3 threshold.
pub fn terminal_reason(
    level: usize,
    budget: usize,
    parent_cost: Option<f64>,
    cost: f64,
    flat_run: u32,
    max_flat_run: u32,
) -> TerminalReason {
    if level >= budget {
        return TerminalReason::BudgetExhausted;
    }
    if let Some(pc) = parent_cost {
        if cost > pc + 1e-9 {
            return TerminalReason::CostIncreased;
        }
    }
    if flat_run >= max_flat_run {
        return TerminalReason::CostFlat;
    }
    TerminalReason::NotTerminal
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_rule_fires_at_n_minus_2() {
        assert_eq!(
            terminal_reason(3, 3, Some(10.0), 9.0, 0, 3),
            TerminalReason::BudgetExhausted
        );
        assert_eq!(
            terminal_reason(2, 3, Some(10.0), 9.0, 0, 3),
            TerminalReason::NotTerminal
        );
    }

    #[test]
    fn cost_increase_rule() {
        assert_eq!(
            terminal_reason(1, 5, Some(10.0), 10.5, 0, 3),
            TerminalReason::CostIncreased
        );
        // Equal cost is not an increase.
        assert_eq!(
            terminal_reason(1, 5, Some(10.0), 10.0, 1, 3),
            TerminalReason::NotTerminal
        );
        // Decrease is fine.
        assert_eq!(
            terminal_reason(1, 5, Some(10.0), 8.0, 0, 3),
            TerminalReason::NotTerminal
        );
    }

    #[test]
    fn flat_run_rule() {
        assert_eq!(
            terminal_reason(2, 9, Some(10.0), 10.0, 3, 3),
            TerminalReason::CostFlat
        );
        assert_eq!(
            terminal_reason(2, 9, Some(10.0), 10.0, 2, 3),
            TerminalReason::NotTerminal
        );
    }

    #[test]
    fn root_has_no_parent_cost() {
        assert_eq!(
            terminal_reason(0, 4, None, 42.0, 0, 3),
            TerminalReason::NotTerminal
        );
        // Zero budget makes even the root terminal.
        assert_eq!(
            terminal_reason(0, 0, None, 42.0, 0, 3),
            TerminalReason::BudgetExhausted
        );
    }

    #[test]
    fn is_terminal_helper() {
        assert!(!TerminalReason::NotTerminal.is_terminal());
        assert!(TerminalReason::BudgetExhausted.is_terminal());
        assert!(TerminalReason::NoActions.is_terminal());
    }
}
