//! D3 fixtures: a fat `pub fn` shadowing its `_in` sibling (violation),
//! a thin delegating wrapper beside its `_into` sibling (also a violation:
//! each answer has one entry point), and a pub fn with no sibling (clean).

/// Workspace type stand-in.
pub struct Ctx {
    buf: Vec<u32>,
}

impl Ctx {
    /// VIOLATION (D3-wrapper): re-implements the logic instead of
    /// delegating to `route_in`.
    pub fn route(&mut self, xs: &[u32]) -> u32 {
        let mut total = 0;
        for &x in xs {
            if x % 2 == 0 {
                total += x;
            } else {
                total += 2 * x;
            }
        }
        self.buf.push(total);
        total
    }

    /// The workspace variant holding the real logic.
    pub fn route_in(&mut self, xs: &[u32], scratch: &mut Vec<u32>) -> u32 {
        scratch.clear();
        scratch.extend_from_slice(xs);
        scratch.iter().sum()
    }

    /// VIOLATION (D3-wrapper): a thin wrapper delegating to its `_into`
    /// sibling is still a second entry point to the same answer.
    pub fn fsp(&mut self, xs: &[u32]) -> Vec<u32> {
        let mut out = Vec::new();
        self.fsp_into(xs, &mut out);
        out
    }

    /// The `_into` variant holding the real logic.
    pub fn fsp_into(&mut self, xs: &[u32], out: &mut Vec<u32>) {
        out.clear();
        out.extend_from_slice(xs);
        out.reverse();
    }

    /// CLEAN: no `_in`/`_into` sibling — arbitrary body allowed.
    pub fn standalone(&self, xs: &[u32]) -> u32 {
        let mut total = 0;
        for &x in xs {
            total = total.max(x);
        }
        total
    }
}
