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
use std::rc::Rc;

use formad_ir::Name;

use crate::body::SiteId;

/// Instance number of a variable at a program point.
pub type InstanceId = u32;

/// Result of the reaching-definitions pass.
#[derive(Debug)]
pub struct Instances {
    /// `var → instance at each site`, for every variable the region
    /// defines.
    at: HashMap<Name, Vec<InstanceId>>,
    /// Number of distinct definition sets per variable.
    counts: HashMap<Name, usize>,
}

/// The definitions of each scalar the region defines reaching one site
/// (indexed like the sorted variable list). A set is shared between the
/// sites it passes through unchanged.
pub(crate) type Env = Vec<Rc<BTreeSet<SiteId>>>;

impl Instances {
    /// Instance of `var` for *uses* occurring at `site`. Variables never
    /// assigned in the region have instance 0 everywhere.
    pub fn instance(&self, site: SiteId, var: &str) -> InstanceId {
        self.at.get(var).map_or(0, |ids| ids[site])
    }

    /// Number of distinct instances of `var` in the region.
    pub fn instance_count(&self, var: &str) -> usize {
        self.counts.get(var).copied().unwrap_or(1)
    }

    /// Number the reaching sets of each of `vars`, meeting the sites in
    /// order; `ins[0]` is the entry's, whose set of every variable is
    /// instance 0, "the value on entry to the region".
    pub(crate) fn intern(vars: &[Name], ins: &[Env]) -> Instances {
        let mut at = HashMap::new();
        let mut counts = HashMap::new();
        for (k, v) in vars.iter().enumerate() {
            let mut table: HashMap<&BTreeSet<SiteId>, InstanceId> = HashMap::new();
            let ids: Vec<InstanceId> = ins
                .iter()
                .map(|env| {
                    let next = table.len() as InstanceId;
                    *table.entry(&*env[k]).or_insert(next)
                })
                .collect();
            at.insert(v.clone(), ids);
            counts.insert(v.clone(), table.len());
        }
        Instances { at, counts }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze_body;
    use crate::body::tests::sites;
    use formad_ir::{parse_program, Stmt};

    fn analyze(src: &str) -> (Vec<Stmt>,) {
        (parse_program(src).unwrap().body,)
    }

    /// The site of the k-th statement that is neither `if` nor `for`.
    fn nth_simple(body: &[Stmt], k: usize) -> SiteId {
        sites(body)
            .into_iter()
            .filter(|(_, s)| !matches!(s, Stmt::If { .. } | Stmt::For(_)))
            .nth(k)
            .unwrap()
            .0
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
        let inst = analyze_body(&body).1;
        assert_eq!(inst.instance(nth_simple(&body, 0), "w"), 0);
        assert_eq!(inst.instance(nth_simple(&body, 1), "w"), 0);
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
        let inst = analyze_body(&body).1;
        let use1 = inst.instance(nth_simple(&body, 0), "w");
        let use2 = inst.instance(nth_simple(&body, 2), "w");
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
        let inst = analyze_body(&body).1;
        // Node order: w=1, w=2, u(w)=...
        let def1 = nth_simple(&body, 0);
        let def2 = nth_simple(&body, 1);
        let use_node = nth_simple(&body, 2);
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
        let inst = analyze_body(&body).1;
        // Use inside the loop sees {w=0 def, w=w+1 def} merged — a fresh
        // instance distinct from both straight-line instances.
        let assigns_to = |name: &str| -> Vec<SiteId> {
            sites(&body)
                .into_iter()
                .filter(|(_, s)| matches!(s, Stmt::Assign { lhs, .. } if lhs.name() == name))
                .map(|(n, _)| n)
                .collect()
        };
        let use_node = assigns_to("u")[0];
        let in_loop = inst.instance(use_node, "w");
        assert_ne!(in_loop, 0);
        // And the increment's own use sees the same merged instance.
        let incr_node = assigns_to("w")[1];
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
        let inst = analyze_body(&body).1;
        let use_node = nth_simple(&body, 0);
        // Inside the loop, j's reaching def is exactly the head: a single
        // fresh instance (not the entry instance).
        assert_ne!(inst.instance(use_node, "j"), 0);
        assert_eq!(inst.instance_count("j"), 3); // entry, {head}, {entry,head} at the head itself
    }
}
