//! The one search engine behind both MCTS schemes.
//!
//! The combinatorial search (Section 3.4) and the conventional AlphaGo-like
//! baseline (Section 4.2) grow the same kind of tree: nodes are Steiner-point
//! states, edges carry `(N, W, P)`, descent is by `Q + U`, leaves are
//! expanded with one selector inference and valued by the critic, and the
//! value is backed up along the descent path. They differ in exactly three
//! places, all matched on [`Scheme`]:
//!
//! * **expansion prior** — combinatorial uses Eq. 1
//!   ([`action_policy_into`]: only vertices after the last selected one,
//!   in priority order); conventional normalizes `fsp` over every
//!   unselected valid vertex ([`conventional_policy_into`]);
//! * **label bookkeeping** — combinatorial records every descent step in
//!   the `n_sel` / `n_opp` counters of Eq. 3; conventional records each
//!   executed move's root visit distribution as an [`AlphaGoSample`];
//! * **root-move tie-break** — both execute the most visited root edge,
//!   then the best `Q`; combinatorial breaks the remaining tie toward the
//!   smaller action, conventional keeps the last such edge (the largest
//!   action).
//!
//! Everything else is shared so that the paper's comparison (Figs. 11–12)
//! measures the action space and the label, not two drifting copies.

use oarsmt::selector::Selector;
use oarsmt::topk::steiner_budget;
use oarsmt_geom::{GridPoint, HananGraph};
use oarsmt_router::{RouteContext, RouteError};
use oarsmt_telemetry::{Counter, CounterSet};

use crate::actor::{action_policy_into, conventional_policy_into, ActionProb};
use crate::alphago::AlphaGoSample;
use crate::config::MctsConfig;
use crate::critic::Critic;
use crate::label::LabelCounters;
use crate::terminal::{terminal_reason, TerminalReason};

/// Which scheme a search runs, holding that scheme's label sink.
pub(crate) enum Scheme<'a> {
    /// Priority-ordered combinations; labels are the Eq. 3 counters.
    Combinatorial(&'a mut LabelCounters),
    /// Ordered sequences over every valid vertex; one sample per executed
    /// move.
    Conventional(&'a mut Vec<AlphaGoSample>),
}

/// The scheme-independent result of one search.
pub(crate) struct Run {
    /// The executed Steiner points, in selection order.
    pub(crate) executed: Vec<GridPoint>,
    /// Routing cost of the executed terminal state.
    pub(crate) final_cost: f64,
    /// Routing cost `rc_{s_0}` of the initial layout (pins only).
    pub(crate) initial_cost: f64,
    /// Number of nodes materialized in the search tree.
    pub(crate) nodes_created: usize,
    /// Number of leaf simulations.
    pub(crate) simulations: usize,
}

/// An edge of the search tree: the `(s, a)` record with visit count `N`,
/// total value `W`, mean value `Q` and prior `P` (Section 3.4).
#[derive(Debug, Clone)]
struct Edge {
    action: u32,
    child: Option<u32>,
    n: u32,
    w: f64,
    p: f64,
}

impl Edge {
    fn q(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.w / self.n as f64
        }
    }
}

/// A node of the search tree: one state (set or sequence of selected
/// vertices).
///
/// The selection itself is **not stored**: a node records only its parent
/// and the action that created it, and [`reconstruct_selected`] rebuilds
/// the selection by walking parent pointers. Creating a child is therefore
/// O(1) instead of cloning the parent's selection vector.
#[derive(Debug, Clone)]
struct Node {
    /// Parent node, or `None` at the root of the search tree.
    parent: Option<u32>,
    /// The action (vertex index) executed from `parent` to reach this node;
    /// meaningless at the root.
    action: u32,
    /// Number of selected vertices in this state (= tree depth).
    depth: u32,
    /// Routing cost of this state (pins + selected, unpruned OARMST).
    cost: f64,
    /// Consecutive cost-flat actions ending at this node.
    flat_run: u32,
    terminal: TerminalReason,
    expanded: bool,
    edges: Vec<Edge>,
    /// Cached leaf value, so terminal nodes are simulated once.
    value: Option<f64>,
}

/// Rebuilds `node`'s selected vertices, in selection order (ascending
/// priority for the combinatorial scheme), into `out` by walking parent
/// pointers root-ward and reversing.
fn reconstruct_selected(nodes: &[Node], node: u32, out: &mut Vec<u32>) {
    out.clear();
    let mut cur = &nodes[node as usize];
    while let Some(parent) = cur.parent {
        out.push(cur.action);
        cur = &nodes[parent as usize];
    }
    out.reverse();
}

/// Scratch buffers borrowed out of the [`RouteContext`] for the duration of
/// one search, so `ctx` stays free for the critic's routing calls.
#[derive(Debug, Default)]
struct SearchBuffers {
    sel_idx: Vec<u32>,
    sel_pts: Vec<GridPoint>,
    fsp: Vec<f32>,
    policy: Vec<ActionProb>,
    /// Selection path of one exploration iteration, reused across all
    /// `α` iterations of a search.
    path: Vec<(u32, usize)>,
    /// Search-side telemetry (expansions, rollouts, backprop steps);
    /// folded into `ctx.counters` when the buffers are restored.
    counters: CounterSet,
}

impl SearchBuffers {
    fn take_from(ctx: &mut RouteContext) -> Self {
        SearchBuffers {
            sel_idx: std::mem::take(&mut ctx.selected_idx),
            sel_pts: std::mem::take(&mut ctx.selected_points),
            fsp: std::mem::take(&mut ctx.fsp),
            policy: Vec::new(),
            path: Vec::new(),
            counters: CounterSet::new(),
        }
    }

    fn restore_to(self, ctx: &mut RouteContext) {
        ctx.selected_idx = self.sel_idx;
        ctx.selected_points = self.sel_pts;
        ctx.fsp = self.fsp;
        ctx.counters.merge_from(&self.counters);
    }

    /// Rebuilds the selection of `node` into `sel_idx` / `sel_pts`.
    fn load_selection(&mut self, nodes: &[Node], node: u32, graph: &HananGraph) {
        reconstruct_selected(nodes, node, &mut self.sel_idx);
        self.sel_pts.clear();
        self.sel_pts
            .extend(self.sel_idx.iter().map(|&i| graph.point(i as usize)));
    }
}

/// The shared search driver: configuration plus the critic that prices
/// states.
#[derive(Debug)]
pub(crate) struct Engine {
    pub(crate) config: MctsConfig,
    critic: Critic,
}

impl Engine {
    pub(crate) fn new(config: MctsConfig) -> Self {
        Engine {
            config,
            critic: Critic::new(),
        }
    }

    /// Runs the full search on an initial layout: repeated `α`-iteration
    /// exploration phases, each followed by executing the best root
    /// action, until the root is terminal. Labels go to `scheme`'s sink.
    ///
    /// # Errors
    ///
    /// Propagates OARMST routing failures (e.g. disconnected pins).
    pub(crate) fn search_in<S: Selector>(
        &self,
        ctx: &mut RouteContext,
        graph: &HananGraph,
        selector: &mut S,
        mut scheme: Scheme<'_>,
    ) -> Result<Run, RouteError> {
        let mut bufs = SearchBuffers::take_from(ctx);
        let result = self.search_impl(ctx, &mut bufs, graph, selector, &mut scheme);
        bufs.restore_to(ctx);
        result
    }

    fn search_impl<S: Selector>(
        &self,
        ctx: &mut RouteContext,
        bufs: &mut SearchBuffers,
        graph: &HananGraph,
        selector: &mut S,
        scheme: &mut Scheme<'_>,
    ) -> Result<Run, RouteError> {
        let budget = steiner_budget(graph.pins().len());
        let alpha = self.config.iterations_for(graph);
        let initial_cost = self.critic.state_cost_in(ctx, graph, &[])?;
        let mut nodes = vec![Node {
            parent: None,
            action: 0,
            depth: 0,
            cost: initial_cost,
            flat_run: 0,
            terminal: terminal_reason(0, budget, None, initial_cost, 0, self.config.max_flat_run),
            expanded: false,
            edges: Vec::new(),
            value: None,
        }];
        let mut simulations = 0usize;
        let mut root: u32 = 0;

        while !nodes[root as usize].terminal.is_terminal() {
            for _ in 0..alpha {
                self.explore(
                    ctx,
                    bufs,
                    graph,
                    selector,
                    scheme,
                    &mut nodes,
                    root,
                    budget,
                    initial_cost,
                    &mut simulations,
                )?;
            }
            // Execute the most visited root action (then the best Q).
            let edges = &nodes[root as usize].edges;
            let prefer_smaller_action = matches!(scheme, Scheme::Combinatorial(_));
            let best = (0..edges.len()).max_by(|&a, &b| {
                let (ea, eb) = (&edges[a], &edges[b]);
                let by_visits = ea.n.cmp(&eb.n).then(ea.q().total_cmp(&eb.q()));
                if prefer_smaller_action {
                    by_visits.then(eb.action.cmp(&ea.action))
                } else {
                    by_visits
                }
            });
            let Some(best) = best else {
                break; // expansion found no actions
            };
            if let Scheme::Conventional(samples) = scheme {
                // Per-move label: the root's normalized visit counts.
                let total: u32 = edges.iter().map(|e| e.n).sum();
                if total > 0 {
                    let mut label = vec![0.0f32; graph.len()];
                    for e in edges {
                        label[e.action as usize] = e.n as f32 / total as f32;
                    }
                    bufs.load_selection(&nodes, root, graph);
                    samples.push(AlphaGoSample {
                        state: bufs.sel_pts.clone(),
                        label,
                    });
                }
            }
            root = self.materialize_child(ctx, bufs, graph, &mut nodes, root, best, budget)?;
        }

        bufs.load_selection(&nodes, root, graph);
        Ok(Run {
            executed: bufs.sel_pts.clone(),
            final_cost: nodes[root as usize].cost,
            initial_cost,
            nodes_created: nodes.len(),
            simulations,
        })
    }

    /// One exploration iteration: selection, expansion, simulation,
    /// backpropagation (Fig. 6).
    #[allow(clippy::too_many_arguments)]
    fn explore<S: Selector>(
        &self,
        ctx: &mut RouteContext,
        bufs: &mut SearchBuffers,
        graph: &HananGraph,
        selector: &mut S,
        scheme: &mut Scheme<'_>,
        nodes: &mut Vec<Node>,
        root: u32,
        budget: usize,
        initial_cost: f64,
        simulations: &mut usize,
    ) -> Result<(), RouteError> {
        // Taken (not borrowed) so `bufs` stays free for the calls below;
        // an early `?` return drops the capacity, which only matters on the
        // error path where the whole search aborts anyway.
        let mut path = std::mem::take(&mut bufs.path);
        path.clear();
        let mut cur = root;

        // Selection: descend by Q + U until a leaf (unexpanded or terminal).
        loop {
            let node = &nodes[cur as usize];
            if node.terminal.is_terminal() || !node.expanded || node.edges.is_empty() {
                break;
            }
            let sum_n: u32 = node.edges.iter().map(|e| e.n).sum();
            let sqrt_sum = (sum_n as f64).sqrt();
            let mut best = 0usize;
            let mut best_score = f64::NEG_INFINITY;
            for (i, e) in node.edges.iter().enumerate() {
                let u = self.config.exploration * e.p * sqrt_sum / (1.0 + e.n as f64);
                let score = e.q() + u + 1e-12 * e.p; // prior as deterministic tie-break
                if score > best_score {
                    best_score = score;
                    best = i;
                }
            }
            if let Scheme::Combinatorial(counters) = scheme {
                counters.record_step(node.edges[best].action, node.edges.iter().map(|e| e.action));
            }
            path.push((cur, best));
            cur = self.materialize_child(ctx, bufs, graph, nodes, cur, best, budget)?;
        }

        // Expansion + simulation at the leaf.
        let value = if let Some(v) = nodes[cur as usize].value {
            v
        } else {
            let v = if nodes[cur as usize].terminal.is_terminal() {
                // Terminal: value from the state's own routing cost.
                (initial_cost - nodes[cur as usize].cost) / initial_cost
            } else {
                bufs.load_selection(nodes, cur, graph);
                selector.fsp_into_ws(graph, &bufs.sel_pts, &mut bufs.fsp, &mut ctx.nn);
                match scheme {
                    Scheme::Combinatorial(_) => {
                        let last = bufs.sel_idx.last().copied();
                        action_policy_into(graph, &bufs.fsp, last, &mut bufs.policy);
                    }
                    Scheme::Conventional(_) => {
                        conventional_policy_into(graph, &bufs.fsp, &bufs.sel_idx, &mut bufs.policy);
                    }
                }
                if bufs.policy.is_empty() {
                    nodes[cur as usize].terminal = TerminalReason::NoActions;
                } else {
                    nodes[cur as usize].edges = bufs
                        .policy
                        .iter()
                        .map(|a| Edge {
                            action: a.vertex,
                            child: None,
                            n: 0,
                            w: 0.0,
                            p: a.prob,
                        })
                        .collect();
                    nodes[cur as usize].expanded = true;
                    bufs.counters.bump(Counter::MctsExpansions);
                }
                *simulations += 1;
                bufs.counters.bump(Counter::MctsRollouts);
                let predicted = if self.config.use_critic {
                    self.critic
                        .predict_with_fsp_in(ctx, graph, &bufs.sel_pts, &bufs.fsp)?
                } else {
                    nodes[cur as usize].cost
                };
                (initial_cost - predicted) / initial_cost
            };
            nodes[cur as usize].value = Some(v);
            v
        };

        // Backpropagation: N += 1, W += v, Q = W / N along the path.
        bufs.counters
            .add(Counter::MctsBackpropSteps, path.len() as u64);
        for &(node_id, edge_idx) in &path {
            let e = &mut nodes[node_id as usize].edges[edge_idx];
            e.n += 1;
            e.w += value;
        }
        bufs.path = path;
        Ok(())
    }

    /// Creates (or fetches) the child node behind `edge_idx` of `parent`.
    /// A new child stores only `(parent, action)` — no clone of the
    /// parent's selection.
    #[allow(clippy::too_many_arguments)]
    fn materialize_child(
        &self,
        ctx: &mut RouteContext,
        bufs: &mut SearchBuffers,
        graph: &HananGraph,
        nodes: &mut Vec<Node>,
        parent: u32,
        edge_idx: usize,
        budget: usize,
    ) -> Result<u32, RouteError> {
        if let Some(c) = nodes[parent as usize].edges[edge_idx].child {
            return Ok(c);
        }
        let action = nodes[parent as usize].edges[edge_idx].action;
        bufs.load_selection(nodes, parent, graph);
        bufs.sel_idx.push(action);
        bufs.sel_pts.push(graph.point(action as usize));
        let cost = self.critic.state_cost_in(ctx, graph, &bufs.sel_pts)?;
        let parent_cost = nodes[parent as usize].cost;
        let flat_run = if (cost - parent_cost).abs() <= 1e-9 {
            nodes[parent as usize].flat_run + 1
        } else {
            0
        };
        let depth = nodes[parent as usize].depth + 1;
        let terminal = terminal_reason(
            depth as usize,
            budget,
            Some(parent_cost),
            cost,
            flat_run,
            self.config.max_flat_run,
        );
        let id = nodes.len() as u32;
        nodes.push(Node {
            parent: Some(parent),
            action,
            depth,
            cost,
            flat_run,
            terminal,
            expanded: false,
            edges: Vec::new(),
            value: None,
        });
        nodes[parent as usize].edges[edge_idx].child = Some(id);
        Ok(id)
    }
}
