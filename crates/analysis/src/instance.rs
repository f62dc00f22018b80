//! Instance numbering of possibly-overwritten scalar variables
//! (paper §5.2).
//!
//! Two uses of a variable get the same instance number exactly when they
//! are reached by the same set of definitions (Def-Use chains). A merge of
//! different control flows, or a loop that overwrites a variable, yields a
//! fresh definition set and hence a fresh instance — so the proof system
//! never conflates two textually identical variable names that may hold
//! different values.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use formad_ir::{LValue, Name, Stmt};

use crate::cfg::{Cfg, NodeId, NodeKind, ENTRY};

/// Instance number of a variable at a program point.
pub type InstanceId = u32;

/// Result of the reaching-definitions pass.
#[derive(Debug)]
pub struct Instances {
    /// `var → instance at each node`, for every variable the region
    /// defines.
    at: HashMap<Name, Vec<InstanceId>>,
    /// Number of distinct definition sets per variable.
    counts: HashMap<Name, usize>,
}

/// The definitions of one variable reaching a point. Shared between the
/// nodes it passes through unchanged.
type DefSet = Arc<BTreeSet<NodeId>>;

/// Reaching definitions per variable (by index into the sorted variable
/// list); `None` until a definition reaches the point.
type Env = Vec<Option<DefSet>>;

impl Instances {
    /// Instance of `var` for *uses* occurring at `node`. Variables never
    /// assigned in the region have instance 0 everywhere.
    pub fn instance(&self, node: NodeId, var: &str) -> InstanceId {
        self.at.get(var).map_or(0, |ids| ids[node])
    }

    /// Number of distinct instances of `var` in the region.
    pub fn instance_count(&self, var: &str) -> usize {
        self.counts.get(var).copied().unwrap_or(1)
    }

    /// Run reaching definitions over `cfg`.
    ///
    /// Definition points: scalar assignments (`x = ...`), `pop(x)`, and
    /// loop heads (which define their counter). The entry node carries a
    /// virtual definition of every variable, so instance 0 always denotes
    /// "the value on entry to the region".
    pub fn analyze(cfg: &Cfg<'_>) -> Instances {
        // Which variable does each node define, if any?
        let def_names: Vec<Option<&Name>> = cfg
            .nodes
            .iter()
            .map(|n| match n {
                NodeKind::Simple(Stmt::Assign {
                    lhs: LValue::Var(v),
                    ..
                })
                | NodeKind::Simple(Stmt::Pop(LValue::Var(v)))
                | NodeKind::Simple(Stmt::AtomicAdd {
                    lhs: LValue::Var(v),
                    ..
                }) => Some(v),
                NodeKind::LoopHead(l) => Some(&l.var),
                _ => None,
            })
            .collect();

        let vars: Vec<&Name> = def_names
            .iter()
            .flatten()
            .copied()
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        // What each defining node generates: the variable's index and the
        // set holding just that node.
        let gens: Vec<Option<(usize, DefSet)>> = def_names
            .iter()
            .enumerate()
            .map(|(node, name)| {
                let k = vars.binary_search(&(*name)?).expect("collected above");
                Some((k, Arc::new(BTreeSet::from([node]))))
            })
            .collect();

        // IN: var → set of defining nodes; ENTRY holds the virtual defs.
        // OUT = gen ∪ (IN − kill) is read off IN where it is needed.
        let entry_set: DefSet = Arc::new(BTreeSet::from([ENTRY]));
        let mut ins: Vec<Env> = vec![vec![None; vars.len()]; cfg.len()];
        ins[ENTRY] = vec![Some(entry_set.clone()); vars.len()];
        let rpo = cfg.reverse_postorder();

        let mut changed = true;
        while changed {
            changed = false;
            for &node in &rpo {
                if node == ENTRY {
                    continue;
                }
                // IN = union of predecessor OUTs. A set that arrives the
                // same from every predecessor is shared, not copied.
                let env: Env = (0..vars.len())
                    .map(|k| {
                        let mut acc: Option<DefSet> = None;
                        for &p in &cfg.preds[node] {
                            let out = match &gens[p] {
                                Some((var, own)) if *var == k => Some(own),
                                _ => ins[p][k].as_ref(),
                            };
                            let Some(set) = out else { continue };
                            match &mut acc {
                                None => acc = Some(set.clone()),
                                Some(a) if Arc::ptr_eq(a, set) || set.is_subset(a) => {}
                                Some(a) => Arc::make_mut(a).extend(set.iter().copied()),
                            }
                        }
                        acc
                    })
                    .collect();
                if env != ins[node] {
                    ins[node] = env;
                    changed = true;
                }
            }
        }

        // Intern reaching sets into per-variable instance numbers, with
        // instance 0 reserved for the entry-only set.
        let mut at = HashMap::new();
        let mut counts = HashMap::new();
        for (k, v) in vars.iter().enumerate() {
            let mut table: Vec<&DefSet> = vec![&entry_set];
            let ids: Vec<InstanceId> = ins
                .iter()
                .map(|env| {
                    let set = env[k].as_ref().unwrap_or(&entry_set);
                    let id = table.iter().position(|s| *s == set).unwrap_or_else(|| {
                        table.push(set);
                        table.len() - 1
                    });
                    id as InstanceId
                })
                .collect();
            at.insert((*v).clone(), ids);
            counts.insert((*v).clone(), table.len());
        }
        Instances { at, counts }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use formad_ir::parse_program;

    fn analyze(src: &str) -> (Vec<Stmt>,) {
        (parse_program(src).unwrap().body,)
    }

    /// Find the node of the k-th Simple statement (in node order).
    fn nth_simple(cfg: &Cfg<'_>, k: usize) -> NodeId {
        (0..cfg.len())
            .filter(|&n| matches!(cfg.nodes[n], NodeKind::Simple(_)))
            .nth(k)
            .unwrap()
    }

    #[test]
    fn unmodified_var_has_instance_zero() {
        let (body,) = analyze(
            r#"
subroutine t(n, u, w)
  integer, intent(in) :: n, w
  real, intent(inout) :: u(n)
  u(w) = 1.0
  u(w + 1) = 2.0
end subroutine
"#,
        );
        let cfg = Cfg::build(&body);
        let inst = Instances::analyze(&cfg);
        assert_eq!(inst.instance(nth_simple(&cfg, 0), "w"), 0);
        assert_eq!(inst.instance(nth_simple(&cfg, 1), "w"), 0);
        assert_eq!(inst.instance_count("w"), 1);
    }

    #[test]
    fn overwrite_creates_new_instance() {
        let (body,) = analyze(
            r#"
subroutine t(n, u, w)
  integer, intent(in) :: n
  integer :: w
  real, intent(inout) :: u(n)
  u(w) = 1.0
  w = w + 1
  u(w) = 2.0
end subroutine
"#,
        );
        let cfg = Cfg::build(&body);
        let inst = Instances::analyze(&cfg);
        let use1 = inst.instance(nth_simple(&cfg, 0), "w");
        let use2 = inst.instance(nth_simple(&cfg, 2), "w");
        assert_eq!(use1, 0);
        assert_ne!(use1, use2);
    }

    #[test]
    fn merge_of_distinct_defs_gets_third_instance() {
        let (body,) = analyze(
            r#"
subroutine t(n, u, i, j)
  integer, intent(in) :: n, i, j
  integer :: w
  real, intent(inout) :: u(n)
  if (i .ne. j) then
    w = 1
  else
    w = 2
  end if
  u(w) = 1.0
end subroutine
"#,
        );
        let cfg = Cfg::build(&body);
        let inst = Instances::analyze(&cfg);
        // Node order: w=1, w=2, u(w)=...
        let def1 = nth_simple(&cfg, 0);
        let def2 = nth_simple(&cfg, 1);
        let use_node = nth_simple(&cfg, 2);
        let at_use = inst.instance(use_node, "w");
        // The merged instance differs from both arms' outgoing defs and
        // from the entry instance.
        assert_ne!(at_use, 0);
        // Uses *at* the defining nodes still see the incoming instance.
        assert_eq!(inst.instance(def1, "w"), 0);
        assert_eq!(inst.instance(def2, "w"), 0);
        assert_eq!(inst.instance_count("w"), 2); // entry set + merged {d1,d2} (singleton sets never reach a use)
    }

    #[test]
    fn loop_entry_renews_instance() {
        let (body,) = analyze(
            r#"
subroutine t(n, u)
  integer, intent(in) :: n
  integer :: j, w
  real, intent(inout) :: u(n)
  w = 0
  do j = 1, n
    u(w) = 1.0
    w = w + 1
  end do
end subroutine
"#,
        );
        let cfg = Cfg::build(&body);
        let inst = Instances::analyze(&cfg);
        // Use inside the loop sees {w=0 def, w=w+1 def} merged — a fresh
        // instance distinct from both straight-line instances.
        let use_node = (0..cfg.len())
            .find(|&n| {
                matches!(cfg.nodes[n], NodeKind::Simple(Stmt::Assign { ref lhs, .. })
                    if lhs.name() == "u")
            })
            .unwrap();
        let in_loop = inst.instance(use_node, "w");
        assert_ne!(in_loop, 0);
        // And the increment's own use sees the same merged instance.
        let incr_node = (0..cfg.len())
            .find(|&n| {
                matches!(cfg.nodes[n], NodeKind::Simple(Stmt::Assign { ref lhs, .. })
                    if lhs.name() == "w" )
                    && cfg.preds[n].len() == 1
                    && matches!(cfg.nodes[cfg.preds[n][0]], NodeKind::Simple(_))
            })
            .unwrap();
        assert_eq!(inst.instance(incr_node, "w"), in_loop);
    }

    #[test]
    fn loop_counter_defined_by_head() {
        let (body,) = analyze(
            r#"
subroutine t(n, u)
  integer, intent(in) :: n
  integer :: j
  real, intent(inout) :: u(n)
  do j = 1, n
    u(j) = 1.0
  end do
end subroutine
"#,
        );
        let cfg = Cfg::build(&body);
        let inst = Instances::analyze(&cfg);
        let use_node = nth_simple(&cfg, 0);
        // Inside the loop, j's reaching def is exactly the head: a single
        // fresh instance (not the entry instance).
        assert_ne!(inst.instance(use_node, "j"), 0);
        assert_eq!(inst.instance_count("j"), 3); // entry, {head}, {entry,head} at the head itself
    }
}
