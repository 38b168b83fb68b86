//! DML execution: INSERT (with ON CONFLICT), UPDATE, DELETE, COPY.
//!
//! INSERT/UPDATE/DELETE run in two steps, like SELECT: a plan step resolves
//! the table, columns and access path and binds every expression
//! (`plan_insert`, `plan_modify`), and a run step executes that plan
//! against the statement's parameter values (`run_insert`, `run_update`,
//! `run_delete`), so one plan serves every execution of a statement shape.
//!
//! Writers follow PostgreSQL's read-committed protocol: target rows are found
//! under the statement snapshot, locked, then re-checked against the latest
//! committed version before modification (the EvalPlanQual dance).

use crate::catalog::{IndexMethod, TableMeta};
use crate::error::{ErrorCode, PgError, PgResult};
use crate::exec::{build_select_plan, execute_select, run_select_plan, scan_with_rowids, ExecCtx};
use crate::expr::{bind, eval, BExpr, ColumnRef, RowScope};
use crate::index::IndexStore;
use crate::lock::{LockKey, LockMode};
use crate::plan::{choose_access_paths, split_conjuncts, PlanNode, SelectPlan};
use crate::storage::{ExpireOutcome, TableStore};
use crate::types::{Datum, Row};
use crate::txn::INVALID_XID;
use crate::wal::WalRecord;
use sqlparse::ast::{Assignment, ConflictAction, Expr, Insert, InsertSource};

/// Scope of a table's own columns (unqualified + optionally aliased).
fn table_scope(meta: &TableMeta, alias: Option<&str>) -> RowScope {
    let q = alias.unwrap_or(&meta.name);
    RowScope {
        cols: meta.columns.iter().map(|c| ColumnRef::new(Some(q), &c.name)).collect(),
    }
}

/// Charge the simulated cost of writing one row (heap write + WAL + per-index
/// maintenance; trigram GIN entries dominate ingest cost, which is exactly
/// the effect Figure 7(a) measures).
fn charge_write(ctx: &mut ExecCtx, meta: &TableMeta, row: &Row) -> PgResult<()> {
    let model = ctx.engine.config.cost;
    ctx.cost.add_tuples(&model, 1);
    ctx.cost.add_cpu(model.cpu_tuple_ms); // WAL record
    for iid in &meta.indexes {
        let imeta = ctx.engine.index_meta(*iid)?;
        match imeta.method {
            IndexMethod::BTree => ctx.cost.add_cpu(model.index_descend_ms * 0.5),
            IndexMethod::Gin => {
                // one posting insertion per trigram of the indexed text
                let (keys, _) = ctx.engine.bound_index(&imeta, meta)?;
                let v = eval(&keys[0], row, &ctx.eval_ctx)?;
                if !v.is_null() {
                    let grams = crate::types::text_ops::trigrams(&v.to_text()).len();
                    ctx.cost.add_cpu(model.cpu_operator_ms * 4.0 * grams as f64);
                }
            }
        }
    }
    Ok(())
}

/// Check all unique indexes for a conflicting live row. `exclude` skips the
/// row being updated.
fn check_unique(
    ctx: &ExecCtx,
    meta: &TableMeta,
    row: &Row,
    exclude: Option<u64>,
) -> PgResult<()> {
    let store = ctx.engine.store(meta.id)?;
    let TableStore::Heap(heap) = &*store else { return Ok(()) };
    for iid in &meta.indexes {
        let imeta = ctx.engine.index_meta(*iid)?;
        if !imeta.unique {
            continue;
        }
        let (keys, _) = ctx.engine.bound_index(&imeta, meta)?;
        let key: Vec<Datum> =
            keys.iter().map(|k| eval(k, row, &ctx.eval_ctx)).collect::<PgResult<_>>()?;
        if key.iter().any(Datum::is_null) {
            continue; // SQL: NULLs never conflict
        }
        let istore = ctx.engine.index_store(*iid)?;
        let IndexStore::BTree(b) = &*istore else { continue };
        for rid in b.get_eq(&key) {
            if Some(rid) == exclude {
                continue;
            }
            for version in heap.live_or_pending_versions(&ctx.engine.txns, rid) {
                // re-check key equality (index entries can be stale)
                let vkey: Vec<Datum> = keys
                    .iter()
                    .map(|k| eval(k, &version, &ctx.eval_ctx))
                    .collect::<PgResult<_>>()?;
                if vkey
                    .iter()
                    .zip(&key)
                    .all(|(a, b)| a.sql_cmp(b) == Some(std::cmp::Ordering::Equal))
                {
                    return Err(PgError::new(
                        ErrorCode::UniqueViolation,
                        format!(
                            "duplicate key value violates unique constraint \"{}\"",
                            imeta.name
                        ),
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Foreign keys: every referenced row must exist (insert/update path).
fn check_fk_outbound(ctx: &mut ExecCtx, meta: &TableMeta, row: &Row) -> PgResult<()> {
    for fk in meta.foreign_keys.clone() {
        let values: Vec<Datum> = fk.columns.iter().map(|&c| row[c].clone()).collect();
        if values.iter().any(Datum::is_null) {
            continue;
        }
        let ref_meta = ctx.engine.table_meta_by_id(fk.ref_table)?;
        if !row_exists_with(ctx, &ref_meta, &fk.ref_columns, &values)? {
            return Err(PgError::new(
                ErrorCode::ForeignKeyViolation,
                format!(
                    "insert or update on table \"{}\" violates foreign key to \"{}\"",
                    meta.name, ref_meta.name
                ),
            ));
        }
    }
    Ok(())
}

/// Foreign keys: nothing may reference a row being deleted.
fn check_fk_inbound(ctx: &mut ExecCtx, meta: &TableMeta, row: &Row) -> PgResult<()> {
    let refs = ctx.engine.catalog.read().referencing_tables(meta.id);
    for (child_id, fk) in refs {
        let values: Vec<Datum> = fk.ref_columns.iter().map(|&c| row[c].clone()).collect();
        if values.iter().any(Datum::is_null) {
            continue;
        }
        let child_meta = ctx.engine.table_meta_by_id(child_id)?;
        if row_exists_with(ctx, &child_meta, &fk.columns, &values)? {
            return Err(PgError::new(
                ErrorCode::ForeignKeyViolation,
                format!(
                    "update or delete on table \"{}\" violates foreign key on \"{}\"",
                    meta.name, child_meta.name
                ),
            ));
        }
    }
    Ok(())
}

/// Does a visible row exist in `meta` with `cols = values`? Uses an index
/// with a matching column prefix when available.
fn row_exists_with(
    ctx: &mut ExecCtx,
    meta: &TableMeta,
    cols: &[usize],
    values: &[Datum],
) -> PgResult<bool> {
    let store = ctx.engine.store(meta.id)?;
    let TableStore::Heap(heap) = &*store else {
        return Err(PgError::unsupported("foreign keys on columnar tables"));
    };
    // find a b-tree index whose leading columns are exactly `cols`
    for iid in &meta.indexes {
        let imeta = ctx.engine.index_meta(*iid)?;
        if imeta.method != IndexMethod::BTree {
            continue;
        }
        let index_cols: Option<Vec<usize>> = imeta
            .exprs
            .iter()
            .map(|e| match e {
                Expr::Column { name, .. } => meta.column_index(name),
                _ => None,
            })
            .collect();
        let Some(index_cols) = index_cols else { continue };
        if index_cols.len() < cols.len() || index_cols[..cols.len()] != *cols {
            continue;
        }
        let istore = ctx.engine.index_store(*iid)?;
        let IndexStore::BTree(b) = &*istore else { continue };
        let rids = if index_cols.len() == cols.len() {
            b.get_eq(values)
        } else {
            b.get_prefix(values)
        };
        ctx.cost.add_cpu(ctx.engine.config.cost.index_descend_ms);
        for rid in rids {
            if let Some(v) = heap.visible_version(&ctx.engine.txns, &ctx.snap, rid) {
                if cols
                    .iter()
                    .zip(values)
                    .all(|(&c, val)| v[c].sql_cmp(val) == Some(std::cmp::Ordering::Equal))
                {
                    return Ok(true);
                }
            }
        }
        return Ok(false);
    }
    // no usable index: sequential existence scan
    let mut found = false;
    heap.scan_visible(&ctx.engine.txns, &ctx.snap, |t| {
        if !found
            && cols
                .iter()
                .zip(values)
                .all(|(&c, val)| t.data[c].sql_cmp(val) == Some(std::cmp::Ordering::Equal))
        {
            found = true;
        }
    });
    ctx.cost.add_tuples(&ctx.engine.config.cost, heap.live_estimate());
    Ok(found)
}

/// Build one full row from a partial column list, applying defaults, casts,
/// and NOT NULL checks.
fn complete_row(
    ctx: &ExecCtx,
    meta: &TableMeta,
    target_cols: &[usize],
    values: Vec<Datum>,
) -> PgResult<Row> {
    if values.len() != target_cols.len() {
        return Err(PgError::new(
            ErrorCode::Syntax,
            format!("INSERT has {} expressions but {} target columns", values.len(), target_cols.len()),
        ));
    }
    let mut row: Row = vec![Datum::Null; meta.columns.len()];
    let mut provided = vec![false; meta.columns.len()];
    for (&c, v) in target_cols.iter().zip(values) {
        row[c] = v;
        provided[c] = true;
    }
    for (i, col) in meta.columns.iter().enumerate() {
        if !provided[i] {
            if let Some(d) = &col.default {
                let b = bind(d, &RowScope::default(), &[])?;
                row[i] = eval(&b, &vec![], &ctx.eval_ctx)?;
            }
        }
        if !row[i].is_null() {
            row[i] = row[i].cast_to(col.ty)?;
        } else if col.not_null {
            return Err(PgError::new(
                ErrorCode::NotNullViolation,
                format!("null value in column \"{}\" violates not-null constraint", col.name),
            ));
        }
    }
    Ok(row)
}

fn require_xid(ctx: &ExecCtx) -> PgResult<()> {
    if ctx.xid == INVALID_XID {
        return Err(PgError::internal("DML requires an active transaction"));
    }
    Ok(())
}

/// A planned INSERT: target table, resolved columns, bound source rows (or
/// a planned source SELECT) and ON CONFLICT action.
#[derive(Debug, Clone)]
pub struct InsertPlan {
    meta: TableMeta,
    target_cols: Vec<usize>,
    source: InsertRows,
    on_conflict: Option<ConflictPlan>,
}

#[derive(Debug, Clone)]
enum InsertRows {
    Values(Vec<Vec<BExpr>>),
    Query(Box<SelectPlan>),
}

/// ON CONFLICT: the conflict key's columns, and the DO UPDATE assignments
/// (bound over the table's columns followed by `excluded.*`); `None` is
/// DO NOTHING.
#[derive(Debug, Clone)]
struct ConflictPlan {
    cols: Vec<usize>,
    update: Option<Vec<(usize, BExpr)>>,
}

/// Plan an INSERT: resolve its table and columns and bind its expressions.
pub fn plan_insert(ctx: &mut ExecCtx, ins: &Insert, params: &[Datum]) -> PgResult<InsertPlan> {
    let meta = ctx.engine.table_meta(&ins.table)?;
    let target_cols: Vec<usize> = if ins.columns.is_empty() {
        (0..meta.columns.len()).collect()
    } else {
        ins.columns
            .iter()
            .map(|n| meta.column_index(n).ok_or_else(|| PgError::undefined_column(n)))
            .collect::<PgResult<_>>()?
    };
    let source = match &ins.source {
        InsertSource::Values(rows) => {
            let scope = RowScope::default();
            InsertRows::Values(
                rows.iter()
                    .map(|r| r.iter().map(|e| bind(e, &scope, params)).collect())
                    .collect::<PgResult<_>>()?,
            )
        }
        InsertSource::Query(sel) => {
            InsertRows::Query(Box::new(build_select_plan(ctx, sel, params)?))
        }
    };
    let on_conflict = match &ins.on_conflict {
        None => None,
        Some(oc) => {
            let cols: Vec<usize> = if oc.target.is_empty() {
                meta.primary_key.clone().ok_or_else(|| {
                    PgError::new(ErrorCode::InvalidParameter, "ON CONFLICT requires a primary key")
                })?
            } else {
                oc.target
                    .iter()
                    .map(|n| meta.column_index(n).ok_or_else(|| PgError::undefined_column(n)))
                    .collect::<PgResult<_>>()?
            };
            let update = match &oc.action {
                ConflictAction::Nothing => None,
                ConflictAction::Update(assignments) => {
                    // scope: table columns then excluded.*
                    let mut scope = table_scope(&meta, None);
                    scope.cols.extend(
                        meta.columns.iter().map(|c| ColumnRef::new(Some("excluded"), &c.name)),
                    );
                    Some(bind_assignments(&meta, assignments, &scope, params)?)
                }
            };
            Some(ConflictPlan { cols, update })
        }
    };
    Ok(InsertPlan { meta, target_cols, source, on_conflict })
}

fn bind_assignments(
    meta: &TableMeta,
    assignments: &[Assignment],
    scope: &RowScope,
    params: &[Datum],
) -> PgResult<Vec<(usize, BExpr)>> {
    assignments
        .iter()
        .map(|a| {
            let c = meta
                .column_index(&a.column)
                .ok_or_else(|| PgError::undefined_column(&a.column))?;
            Ok((c, bind(&a.value, scope, params)?))
        })
        .collect()
}

/// Run a planned INSERT. Returns the number of rows inserted (ON CONFLICT DO
/// NOTHING rows are not counted; DO UPDATE rows are).
pub fn run_insert(ctx: &mut ExecCtx, plan: &InsertPlan) -> PgResult<u64> {
    require_xid(ctx)?;
    let meta = &plan.meta;
    ctx.engine.locks.acquire(ctx.xid, LockKey::Table(meta.id), LockMode::Shared)?;
    // materialise source rows first (so INSERT INTO t SELECT FROM t is sane)
    let source_rows: Vec<Row> = match &plan.source {
        InsertRows::Values(rows) => {
            let mut out = Vec::with_capacity(rows.len());
            for r in rows {
                let row: Row = r
                    .iter()
                    .map(|b| eval(b, &vec![], &ctx.eval_ctx))
                    .collect::<PgResult<_>>()?;
                out.push(row);
            }
            out
        }
        InsertRows::Query(sel) => run_select_plan(ctx, sel)?.1,
    };

    let store = ctx.engine.store(meta.id)?;
    match &*store {
        TableStore::Columnar(col) => {
            if plan.on_conflict.is_some() {
                return Err(PgError::unsupported("ON CONFLICT on columnar tables"));
            }
            let mut batch = Vec::with_capacity(source_rows.len());
            for values in source_rows {
                let row = complete_row(ctx, meta, &plan.target_cols, values)?;
                charge_write(ctx, meta, &row)?;
                batch.push(row);
            }
            let n = batch.len() as u64;
            let seq = col.append(ctx.xid, batch.clone(), meta.columns.len())?;
            ctx.engine.wal.append(WalRecord::ColumnarAppend {
                xid: ctx.xid,
                table: meta.id,
                seq,
                rows: batch,
            });
            Ok(n)
        }
        TableStore::Heap(heap) => {
            let mut count = 0u64;
            for values in source_rows {
                let row = complete_row(ctx, meta, &plan.target_cols, values)?;
                // ON CONFLICT: look for an existing live row on the target key
                if let Some(oc) = &plan.on_conflict {
                    if let Some((existing_rid, _)) = find_conflict(ctx, meta, &oc.cols, &row)? {
                        match &oc.update {
                            None => continue,
                            Some(assignments) => {
                                apply_conflict_update(
                                    ctx,
                                    meta,
                                    existing_rid,
                                    &row,
                                    assignments,
                                )?;
                                count += 1;
                                continue;
                            }
                        }
                    }
                }
                check_unique(ctx, meta, &row, None)?;
                check_fk_outbound(ctx, meta, &row)?;
                let row_id = heap.insert(ctx.xid, row.clone());
                ctx.engine.index_insert_row(meta, row_id, &row)?;
                ctx.engine.wal.append(WalRecord::Insert {
                    xid: ctx.xid,
                    table: meta.id,
                    row_id,
                    row: row.clone(),
                });
                charge_write(ctx, meta, &row)?;
                count += 1;
            }
            Ok(count)
        }
    }
}

/// Find a live row conflicting with `row` on the ON CONFLICT target columns.
fn find_conflict(
    ctx: &mut ExecCtx,
    meta: &TableMeta,
    cols: &[usize],
    row: &Row,
) -> PgResult<Option<(u64, Row)>> {
    let values: Vec<Datum> = cols.iter().map(|&c| row[c].clone()).collect();
    if values.iter().any(Datum::is_null) {
        return Ok(None);
    }
    let store = ctx.engine.store(meta.id)?;
    let heap = store.heap()?;
    // find rows via any index with that prefix, else scan
    for iid in &meta.indexes {
        let imeta = ctx.engine.index_meta(*iid)?;
        let index_cols: Option<Vec<usize>> = imeta
            .exprs
            .iter()
            .map(|e| match e {
                Expr::Column { name, .. } => meta.column_index(name),
                _ => None,
            })
            .collect();
        let Some(index_cols) = index_cols else { continue };
        if index_cols[..] != cols[..] {
            continue;
        }
        let istore = ctx.engine.index_store(*iid)?;
        let IndexStore::BTree(b) = &*istore else { continue };
        for rid in b.get_eq(&values) {
            if let Some(v) = heap.visible_version(&ctx.engine.txns, &ctx.snap, rid) {
                if cols
                    .iter()
                    .zip(&values)
                    .all(|(&c, val)| v[c].sql_cmp(val) == Some(std::cmp::Ordering::Equal))
                {
                    return Ok(Some((rid, v)));
                }
            }
        }
        return Ok(None);
    }
    let mut found = None;
    heap.scan_visible(&ctx.engine.txns, &ctx.snap, |t| {
        if found.is_none()
            && cols
                .iter()
                .zip(&values)
                .all(|(&c, val)| t.data[c].sql_cmp(val) == Some(std::cmp::Ordering::Equal))
        {
            found = Some((t.row_id, t.data.clone()));
        }
    });
    Ok(found)
}

/// ON CONFLICT DO UPDATE: assignments may reference the table and
/// `excluded.*` (the proposed row).
fn apply_conflict_update(
    ctx: &mut ExecCtx,
    meta: &TableMeta,
    row_id: u64,
    proposed: &Row,
    assignments: &[(usize, BExpr)],
) -> PgResult<()> {
    ctx.engine.locks.acquire(ctx.xid, LockKey::Row(meta.id, row_id), LockMode::Exclusive)?;
    let fresh = ctx.engine.txns.snapshot(ctx.xid);
    let store = ctx.engine.store(meta.id)?;
    let heap = store.heap()?;
    let Some(current) = heap.visible_version(&ctx.engine.txns, &fresh, row_id) else {
        return Ok(()); // row vanished; PostgreSQL would retry, we no-op
    };
    let mut eval_row = current.clone();
    eval_row.extend(proposed.iter().cloned());
    let mut new_row = current.clone();
    for &(c, ref b) in assignments {
        let v = eval(b, &eval_row, &ctx.eval_ctx)?;
        new_row[c] = if v.is_null() { v } else { v.cast_to(meta.columns[c].ty)? };
        if new_row[c].is_null() && meta.columns[c].not_null {
            return Err(PgError::new(
                ErrorCode::NotNullViolation,
                format!("null value in column \"{}\"", meta.columns[c].name),
            ));
        }
    }
    check_unique(ctx, meta, &new_row, Some(row_id))?;
    check_fk_outbound(ctx, meta, &new_row)?;
    let outcome = heap.expire(&ctx.engine.txns, &fresh, row_id, ctx.xid)?;
    if outcome != ExpireOutcome::Expired {
        return Ok(());
    }
    heap.insert_version(row_id, ctx.xid, new_row.clone());
    ctx.engine.index_insert_row(meta, row_id, &new_row)?;
    ctx.engine.wal.append(WalRecord::Update {
        xid: ctx.xid,
        table: meta.id,
        row_id,
        old_row: current,
        new_row: new_row.clone(),
    });
    charge_write(ctx, meta, &new_row)?;
    Ok(())
}

/// A planned UPDATE or DELETE: target table, bound assignments (empty for
/// DELETE), the WHERE predicate re-checked on each target's latest version,
/// and the access path that finds the targets.
#[derive(Debug, Clone)]
pub struct ModifyPlan {
    meta: TableMeta,
    assignments: Vec<(usize, BExpr)>,
    filter: Option<BExpr>,
    target: PlanNode,
}

/// Plan an UPDATE (`assignments` non-empty) or DELETE over `table`.
pub fn plan_modify(
    ctx: &mut ExecCtx,
    table: &str,
    alias: Option<&str>,
    assignments: &[Assignment],
    where_clause: &Option<Expr>,
    params: &[Datum],
) -> PgResult<ModifyPlan> {
    let meta = ctx.engine.table_meta(table)?;
    let scope = table_scope(&meta, alias);
    let assignments = bind_assignments(&meta, assignments, &scope, params)?;
    // subqueries in DML WHERE: execute them via the select path
    let flat = match where_clause {
        Some(w) => {
            let mut subq = CtxSubquery { ctx, params: params.to_vec() };
            Some(crate::plan::flatten_for_dml(w, &mut subq)?)
        }
        None => None,
    };
    let filter = flat.as_ref().map(|f| bind(f, &scope, params)).transpose()?;
    // the target scan: every conjunct filters the scan, and the access-path
    // choice may turn it into an index probe
    let mut target = PlanNode::SeqScan { table: meta.id, filter: None, cols: None };
    if let (Some(f), PlanNode::SeqScan { filter, .. }) = (&flat, &mut target) {
        for c in split_conjuncts(f) {
            let b = bind(c, &scope, params)?;
            *filter = Some(match filter.take() {
                Some(prev) => BExpr::Binary {
                    op: sqlparse::ast::BinaryOp::And,
                    left: Box::new(prev),
                    right: Box::new(b),
                },
                None => b,
            });
        }
    }
    let engine = ctx.engine.clone();
    let view = crate::exec::EngineCatalogView { engine: &engine };
    choose_access_paths(&mut target, &view, &|id| engine.table_meta_by_id(id))?;
    Ok(ModifyPlan { meta, assignments, filter, target })
}

/// Collect the (row_id, row) targets of a planned UPDATE/DELETE.
fn collect_targets(ctx: &mut ExecCtx, target: &PlanNode) -> PgResult<Vec<(u64, Row)>> {
    match target {
        PlanNode::SeqScan { table, filter, .. } => {
            scan_with_rowids(ctx, *table, None, filter, None)
        }
        PlanNode::IndexScan { table, index, probe, filter } => {
            scan_with_rowids(ctx, *table, Some((*index, probe)), filter, None)
        }
        _ => Err(PgError::internal("unexpected DML target plan")),
    }
}

/// Adapter so DML WHERE clauses can run subqueries through the select path.
struct CtxSubquery<'a, 'e> {
    ctx: &'a mut ExecCtx<'e>,
    params: Vec<Datum>,
}

impl crate::plan::SubqueryExecutor for CtxSubquery<'_, '_> {
    fn run_subquery(&mut self, sub: &sqlparse::ast::Select) -> PgResult<Vec<Row>> {
        execute_select(self.ctx, sub, &self.params).map(|(_, rows)| rows)
    }
}

/// Run a planned UPDATE. Returns rows updated.
pub fn run_update(ctx: &mut ExecCtx, plan: &ModifyPlan) -> PgResult<u64> {
    require_xid(ctx)?;
    let meta = &plan.meta;
    ctx.engine.locks.acquire(ctx.xid, LockKey::Table(meta.id), LockMode::Shared)?;
    let targets = collect_targets(ctx, &plan.target)?;
    let store = ctx.engine.store(meta.id)?;
    let heap = store.heap()?;
    let mut count = 0u64;
    for (row_id, _seen) in targets {
        ctx.engine.locks.acquire(ctx.xid, LockKey::Row(meta.id, row_id), LockMode::Exclusive)?;
        let fresh = ctx.engine.txns.snapshot(ctx.xid);
        let Some(current) = heap.visible_version(&ctx.engine.txns, &fresh, row_id) else {
            continue; // deleted meanwhile
        };
        // EvalPlanQual: predicate must still hold on the latest version
        if let Some(f) = &plan.filter {
            if !matches!(eval(f, &current, &ctx.eval_ctx)?, Datum::Bool(true)) {
                continue;
            }
        }
        let mut new_row = current.clone();
        for (c, b) in &plan.assignments {
            let v = eval(b, &current, &ctx.eval_ctx)?;
            new_row[*c] = if v.is_null() { v } else { v.cast_to(meta.columns[*c].ty)? };
            if new_row[*c].is_null() && meta.columns[*c].not_null {
                return Err(PgError::new(
                    ErrorCode::NotNullViolation,
                    format!("null value in column \"{}\"", meta.columns[*c].name),
                ));
            }
        }
        check_unique(ctx, meta, &new_row, Some(row_id))?;
        check_fk_outbound(ctx, meta, &new_row)?;
        match heap.expire(&ctx.engine.txns, &fresh, row_id, ctx.xid)? {
            ExpireOutcome::Expired => {}
            _ => continue,
        }
        heap.insert_version(row_id, ctx.xid, new_row.clone());
        ctx.engine.index_insert_row(meta, row_id, &new_row)?;
        ctx.engine.wal.append(WalRecord::Update {
            xid: ctx.xid,
            table: meta.id,
            row_id,
            old_row: current,
            new_row: new_row.clone(),
        });
        charge_write(ctx, meta, &new_row)?;
        count += 1;
    }
    Ok(count)
}

/// Run a planned DELETE. Returns rows deleted.
pub fn run_delete(ctx: &mut ExecCtx, plan: &ModifyPlan) -> PgResult<u64> {
    require_xid(ctx)?;
    let meta = &plan.meta;
    ctx.engine.locks.acquire(ctx.xid, LockKey::Table(meta.id), LockMode::Shared)?;
    let targets = collect_targets(ctx, &plan.target)?;
    let store = ctx.engine.store(meta.id)?;
    let heap = store.heap()?;
    let mut count = 0u64;
    for (row_id, _seen) in targets {
        ctx.engine.locks.acquire(ctx.xid, LockKey::Row(meta.id, row_id), LockMode::Exclusive)?;
        let fresh = ctx.engine.txns.snapshot(ctx.xid);
        let Some(current) = heap.visible_version(&ctx.engine.txns, &fresh, row_id) else {
            continue;
        };
        if let Some(f) = &plan.filter {
            if !matches!(eval(f, &current, &ctx.eval_ctx)?, Datum::Bool(true)) {
                continue;
            }
        }
        check_fk_inbound(ctx, meta, &current)?;
        match heap.expire(&ctx.engine.txns, &fresh, row_id, ctx.xid)? {
            ExpireOutcome::Expired => {}
            _ => continue,
        }
        heap.adjust_live(-1);
        ctx.engine.wal.append(WalRecord::Delete {
            xid: ctx.xid,
            table: meta.id,
            row_id,
            row: current,
        });
        ctx.cost.add_tuples(&ctx.engine.config.cost, 1);
        count += 1;
    }
    Ok(count)
}

/// COPY FROM: bulk-append pre-parsed rows. The fast ingest path: no planning,
/// single table lock, batched constraint checks.
pub fn exec_copy(
    ctx: &mut ExecCtx,
    table: &str,
    columns: &[String],
    rows: Vec<Row>,
) -> PgResult<u64> {
    require_xid(ctx)?;
    let meta = ctx.engine.table_meta(table)?;
    ctx.engine.locks.acquire(ctx.xid, LockKey::Table(meta.id), LockMode::Shared)?;
    let target_cols: Vec<usize> = if columns.is_empty() {
        (0..meta.columns.len()).collect()
    } else {
        columns
            .iter()
            .map(|n| meta.column_index(n).ok_or_else(|| PgError::undefined_column(n)))
            .collect::<PgResult<_>>()?
    };
    let store = ctx.engine.store(meta.id)?;
    match &*store {
        TableStore::Columnar(col) => {
            let mut batch = Vec::with_capacity(rows.len());
            for values in rows {
                let row = complete_row(ctx, &meta, &target_cols, values)?;
                charge_write(ctx, &meta, &row)?;
                batch.push(row);
            }
            let n = batch.len() as u64;
            let seq = col.append(ctx.xid, batch.clone(), meta.columns.len())?;
            ctx.engine.wal.append(WalRecord::ColumnarAppend {
                xid: ctx.xid,
                table: meta.id,
                seq,
                rows: batch,
            });
            Ok(n)
        }
        TableStore::Heap(heap) => {
            let mut count = 0u64;
            for values in rows {
                let row = complete_row(ctx, &meta, &target_cols, values)?;
                check_unique(ctx, &meta, &row, None)?;
                check_fk_outbound(ctx, &meta, &row)?;
                let row_id = heap.insert(ctx.xid, row.clone());
                ctx.engine.index_insert_row(&meta, row_id, &row)?;
                ctx.engine.wal.append(WalRecord::Insert {
                    xid: ctx.xid,
                    table: meta.id,
                    row_id,
                    row: row.clone(),
                });
                charge_write(ctx, &meta, &row)?;
                count += 1;
            }
            Ok(count)
        }
    }
}
