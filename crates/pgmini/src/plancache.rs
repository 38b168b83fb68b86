//! Plan → run for every SELECT/INSERT/UPDATE/DELETE, and the backend-local
//! generic plan cache.
//!
//! Each statement is planned into a [`StmtPlan`] and then run; nothing
//! executes straight from the AST. A plan binds `$n` parameters as slots
//! read at run time, so a plan built from a statement's *generic* form (see
//! [`sqlparse::shape`]: value-position literals replaced by `$n`) runs every
//! later statement of the same shape with that statement's literal values.
//!
//! Each [`Session`](crate::session::Session) keeps such plans in a
//! [`GenericPlans`] cache, local to that backend like PostgreSQL's
//! plancache, so the hit/miss sequence of a backend depends only on the
//! statements it ran. Entries are keyed by the generic shape of the
//! statement the engine actually receives (shard-rewritten table names
//! included) and guarded by [`Engine::catalog_version`]: a catalog change
//! since planning turns the entry into a miss. A hit skips the planner
//! entirely — scope building, the catalog clones and the access-path choice
//! — and so is charged no `base_plan_ms`.
//!
//! [`Engine::catalog_version`]: crate::engine::Engine::catalog_version

use crate::dml::{self, InsertPlan, ModifyPlan};
use crate::error::{PgError, PgResult};
use crate::exec::{build_select_plan, run_select_plan, ExecCtx};
use crate::plan::SelectPlan;
use crate::session::QueryResult;
use crate::types::Datum;
use sqlparse::ast::Statement;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// A planned statement, ready to run against parameter values in
/// `ExecCtx::eval_ctx.params`.
#[derive(Debug, Clone)]
pub enum StmtPlan {
    Select(SelectPlan),
    Insert(InsertPlan),
    Update(ModifyPlan),
    Delete(ModifyPlan),
}

/// Plan a SELECT/INSERT/UPDATE/DELETE. `params` are the values it will run
/// with. Uncorrelated subqueries run now, on `ctx`, and are charged to it.
pub fn plan_statement(ctx: &mut ExecCtx, stmt: &Statement, params: &[Datum]) -> PgResult<StmtPlan> {
    Ok(match stmt {
        Statement::Select(sel) => StmtPlan::Select(build_select_plan(ctx, sel, params)?),
        Statement::Insert(ins) => StmtPlan::Insert(dml::plan_insert(ctx, ins, params)?),
        Statement::Update(u) => StmtPlan::Update(dml::plan_modify(
            ctx,
            &u.table,
            u.alias.as_deref(),
            &u.assignments,
            &u.where_clause,
            params,
        )?),
        Statement::Delete(d) => StmtPlan::Delete(dml::plan_modify(
            ctx,
            &d.table,
            d.alias.as_deref(),
            &[],
            &d.where_clause,
            params,
        )?),
        _ => return Err(PgError::internal("plan_statement on a utility statement")),
    })
}

/// Run a planned statement.
pub fn run_plan(ctx: &mut ExecCtx, plan: &StmtPlan) -> PgResult<QueryResult> {
    Ok(match plan {
        StmtPlan::Select(p) => {
            let (columns, rows) = run_select_plan(ctx, p)?;
            QueryResult::Rows { columns, rows }
        }
        StmtPlan::Insert(p) => QueryResult::Affected(dml::run_insert(ctx, p)?),
        StmtPlan::Update(p) => QueryResult::Affected(dml::run_update(ctx, p)?),
        StmtPlan::Delete(p) => QueryResult::Affected(dml::run_delete(ctx, p)?),
    })
}

/// Bound on a backend's cached plans; the cache empties when full.
const MAX_GENERIC_PLANS: usize = 1024;

/// Bound on the shapes a backend remembers having planned once.
const MAX_SEEN_SHAPES: usize = 8192;

struct Entry {
    catalog_version: u64,
    /// Parameter slots the plan reads (a cheap check against key collisions).
    slots: usize,
    plan: Arc<StmtPlan>,
}

/// One backend's generic plans, keyed by generic shape.
///
/// A plan is kept from the *second* planning of its shape on: statements
/// seen once — above all those naming a statement's own intermediate-result
/// tables — never repeat, and keeping their plans would only hold memory
/// (PostgreSQL likewise plans the first executions of a prepared statement
/// as custom plans before it settles on a generic one).
#[derive(Default)]
pub(crate) struct GenericPlans {
    entries: HashMap<u64, Entry>,
    seen: HashSet<u64>,
}

impl GenericPlans {
    /// The plan cached for `key`, if it was built under `catalog_version`
    /// for a statement with `slots` parameter slots. A stale entry is
    /// evicted.
    pub fn lookup(
        &mut self,
        key: u64,
        catalog_version: u64,
        slots: usize,
    ) -> Option<Arc<StmtPlan>> {
        match self.entries.get(&key) {
            Some(e) if e.catalog_version == catalog_version && e.slots == slots => {
                Some(e.plan.clone())
            }
            Some(_) => {
                self.entries.remove(&key);
                None
            }
            None => None,
        }
    }

    /// Offer a freshly built plan; kept once its shape was planned before.
    pub fn insert(&mut self, key: u64, catalog_version: u64, slots: usize, plan: Arc<StmtPlan>) {
        if self.seen.len() >= MAX_SEEN_SHAPES {
            self.seen.clear();
        }
        if self.seen.insert(key) {
            return;
        }
        if self.entries.len() >= MAX_GENERIC_PLANS {
            self.entries.clear();
        }
        self.entries.insert(key, Entry { catalog_version, slots, plan });
    }

    pub fn clear(&mut self) {
        self.entries.clear();
        self.seen.clear();
    }
}
