//! Statement shapes: structural hashing with literal values parameterized
//! away, shared by both plan caches.
//!
//! * The **distributed** plan cache keys on [`shape_hash`]: the statement's
//!   full structure (tables, columns, operators, clauses) plus the *type* of
//!   every literal, with literal *values* elided. `k = 1` and `k = 42` share
//!   a shape; `k = 1` and `k = '1'` do not.
//! * A backend's **generic plan** cache keys on [`generic_shape`], which
//!   splits literals by position. A literal in a *value position* — a WHERE
//!   or JOIN ON operand, an IN-list item, a LIKE pattern, an INSERT value,
//!   an UPDATE/ON CONFLICT assignment — becomes a numbered parameter slot;
//!   only its type is hashed and its value is evaluated at run time. A
//!   literal a planner may consume while planning stays *fixed* and hashes
//!   by value: LIMIT/OFFSET counts, positional GROUP BY/ORDER BY references
//!   and the rest of the select list, GROUP BY, HAVING and ORDER BY (their
//!   expressions are matched against each other structurally), JSON member
//!   keys and function arguments (an expression index matches on them), and
//!   CASE arms.
//!
//! Statements with no generic form: non-CRUD statements, statements that
//! already carry `$n` parameters, statements with subqueries (a planner
//! flattens them by running them), IN-lists long enough to compile into a
//! set probe at plan time ([`MAX_SLOT_IN_LIST`]), and statements with more
//! than [`MAX_SLOTS`] slots (bulk VALUES lists: one-off statements whose
//! plans are as large as their data).
//!
//! [`parameterize`] rewrites a statement into its generic form — every
//! slot literal replaced by `$n` in the same walk order [`generic_shape`]
//! extracts them — so a plan built once from the generic form runs any
//! later statement of the same shape with that statement's slot values.

use crate::ast::{self, Expr, Literal, Statement};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// IN-lists longer than this compile into a set probe at plan time, which
/// consumes their values: a statement with one has no generic form.
pub const MAX_SLOT_IN_LIST: usize = 32;

/// A statement with more slots than this has no generic form.
pub const MAX_SLOTS: usize = 256;

/// Hash a statement's shape: its full AST structure with every literal's
/// value elided and its type kept. Two statements differing only in
/// same-typed constants hash equal; anything structural changes the hash.
///
/// CRUD statements (the per-execution hot path) hash through a direct AST
/// visitor — one allocation-free pass that must stay cheaper than the
/// planning it lets a cache hit skip. Everything else falls back to hashing
/// the `Debug` rendering with `Literal(…)` spans elided, which tracks the
/// AST definition automatically.
pub fn shape_hash(stmt: &Statement) -> u64 {
    let mut v = StructuralHasher::new(Mode::Types);
    if v.statement(stmt) {
        return v.h;
    }
    use std::fmt::Write;
    let mut hasher = DebugShapeHasher::new();
    let _ = write!(hasher, "{stmt:?}");
    hasher.finish()
}

/// A statement's generic-plan key and its slot literals in walk order.
#[derive(Debug, Clone, PartialEq)]
pub struct GenericShape<'a> {
    pub key: u64,
    pub slots: Vec<&'a Literal>,
}

/// The generic-plan key of a CRUD statement, with the literal values that
/// fill its parameter slots; `None` when the statement has no generic form
/// (see the module docs).
pub fn generic_shape(stmt: &Statement) -> Option<GenericShape<'_>> {
    let mut v = StructuralHasher::new(Mode::Generic);
    if !v.statement(stmt) || !v.cacheable || v.slots.len() > MAX_SLOTS {
        return None;
    }
    Some(GenericShape { key: v.h, slots: v.slots })
}

/// Rewrite a statement into its generic form: every slot literal (as
/// [`generic_shape`] defines them) becomes `$1`, `$2`, … in walk order.
/// Returns the rewritten statement and the replaced literals.
pub fn parameterize(stmt: &Statement) -> (Statement, Vec<Literal>) {
    let mut out = stmt.clone();
    let mut p = Parameterizer { slots: Vec::new() };
    match &mut out {
        Statement::Select(s) => p.select(s),
        Statement::Insert(i) => p.insert(i),
        Statement::Update(u) => {
            p.assignments(&mut u.assignments);
            p.opt(&mut u.where_clause);
        }
        Statement::Delete(d) => p.opt(&mut d.where_clause),
        _ => {}
    }
    (out, p.slots)
}

/// Where a literal sits, as far as the generic form is concerned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pos {
    /// Evaluated per execution: a parameter slot.
    Value,
    /// May be consumed while planning: hashed by value.
    Fixed,
}

/// Position of the right operand of a binary operator whose expression
/// sits at `pos`: JSON member keys are fixed, everything else inherits.
fn binary_right(op: ast::BinaryOp, pos: Pos) -> Pos {
    match op {
        ast::BinaryOp::JsonGet | ast::BinaryOp::JsonGetText => Pos::Fixed,
        _ => pos,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Every literal hashes by type only (the distributed cache key).
    Types,
    /// Slot literals hash by type and are collected; fixed ones by value.
    Generic,
}

/// FNV-1a walk over the CRUD AST, allocation-free apart from the generic
/// mode's slot list. Every variant gets a distinct code and identifiers
/// hash with a terminator byte.
struct StructuralHasher<'a> {
    h: u64,
    mode: Mode,
    slots: Vec<&'a Literal>,
    /// Cleared by constructs with no generic form (generic mode only).
    cacheable: bool,
}

impl<'a> StructuralHasher<'a> {
    fn new(mode: Mode) -> Self {
        StructuralHasher { h: FNV_OFFSET, mode, slots: Vec::new(), cacheable: true }
    }

    /// Hash a CRUD statement; false for any other kind.
    fn statement(&mut self, stmt: &'a Statement) -> bool {
        match stmt {
            Statement::Select(s) => {
                self.code(1);
                self.select(s);
            }
            Statement::Insert(i) => {
                self.code(2);
                self.insert(i);
            }
            Statement::Update(u) => {
                self.code(3);
                self.str(&u.table);
                self.opt_str(&u.alias);
                self.assignments(&u.assignments);
                self.opt_expr(&u.where_clause, Pos::Value);
            }
            Statement::Delete(d) => {
                self.code(4);
                self.str(&d.table);
                self.opt_str(&d.alias);
                self.opt_expr(&d.where_clause, Pos::Value);
            }
            _ => return false,
        }
        true
    }

    fn code(&mut self, c: u8) {
        self.h ^= c as u64;
        self.h = self.h.wrapping_mul(FNV_PRIME);
    }

    fn num(&mut self, n: u64) {
        for b in n.to_le_bytes() {
            self.code(b);
        }
    }

    fn str(&mut self, s: &str) {
        for &b in s.as_bytes() {
            self.code(b);
        }
        self.code(0xFF);
    }

    fn opt_str(&mut self, s: &Option<String>) {
        match s {
            Some(s) => {
                self.code(1);
                self.str(s);
            }
            None => self.code(0),
        }
    }

    fn flag(&mut self, b: bool) {
        self.code(b as u8);
    }

    fn opt_expr(&mut self, e: &'a Option<Expr>, pos: Pos) {
        match e {
            Some(e) => {
                self.code(1);
                self.expr(e, pos);
            }
            None => self.code(0),
        }
    }

    fn literal(&mut self, l: &'a Literal, pos: Pos) {
        let tag = match l {
            Literal::Null => 0,
            Literal::Bool(_) => 1,
            Literal::Int(_) => 2,
            Literal::Float(_) => 3,
            Literal::String(_) => 4,
        };
        if self.mode == Mode::Types || pos == Pos::Value {
            self.code(30);
            self.code(tag);
            if self.mode == Mode::Generic {
                self.slots.push(l);
            }
            return;
        }
        self.code(29);
        self.code(tag);
        match l {
            Literal::Null => {}
            Literal::Bool(b) => self.flag(*b),
            Literal::Int(v) => self.num(*v as u64),
            Literal::Float(v) => self.num(v.to_bits()),
            Literal::String(s) => self.str(s),
        }
    }

    fn select(&mut self, s: &'a ast::Select) {
        self.flag(s.distinct);
        self.num(s.projection.len() as u64);
        for item in &s.projection {
            match item {
                ast::SelectItem::Wildcard => self.code(10),
                ast::SelectItem::QualifiedWildcard(t) => {
                    self.code(11);
                    self.str(t);
                }
                ast::SelectItem::Expr { expr, alias } => {
                    self.code(12);
                    self.expr(expr, Pos::Fixed);
                    self.opt_str(alias);
                }
            }
        }
        self.num(s.from.len() as u64);
        for f in &s.from {
            self.table_ref(f);
        }
        self.opt_expr(&s.where_clause, Pos::Value);
        self.num(s.group_by.len() as u64);
        for g in &s.group_by {
            self.expr(g, Pos::Fixed);
        }
        self.opt_expr(&s.having, Pos::Fixed);
        self.num(s.order_by.len() as u64);
        for o in &s.order_by {
            self.expr(&o.expr, Pos::Fixed);
            self.flag(o.desc);
        }
        self.opt_expr(&s.limit, Pos::Fixed);
        self.opt_expr(&s.offset, Pos::Fixed);
        self.flag(s.for_update);
    }

    fn subquery(&mut self, q: &'a ast::Select) {
        self.cacheable &= self.mode == Mode::Types;
        self.select(q);
    }

    fn table_ref(&mut self, t: &'a ast::TableRef) {
        match t {
            ast::TableRef::Table { name, alias } => {
                self.code(20);
                self.str(name);
                self.opt_str(alias);
            }
            ast::TableRef::Subquery { query, alias } => {
                self.code(21);
                self.subquery(query);
                self.str(alias);
            }
            ast::TableRef::Join { left, right, kind, on } => {
                self.code(22);
                self.table_ref(left);
                self.table_ref(right);
                self.code(*kind as u8);
                self.opt_expr(on, Pos::Value);
            }
        }
    }

    fn expr(&mut self, e: &'a Expr, pos: Pos) {
        match e {
            Expr::Literal(l) => self.literal(l, pos),
            Expr::Param(i) => {
                self.cacheable &= self.mode == Mode::Types;
                self.code(31);
                self.num(*i as u64);
            }
            Expr::Column { table, name } => {
                self.code(32);
                self.opt_str(table);
                self.str(name);
            }
            Expr::Unary { op, expr } => {
                self.code(33);
                self.code(*op as u8);
                self.expr(expr, pos);
            }
            Expr::Binary { left, op, right } => {
                self.code(34);
                self.expr(left, pos);
                self.code(*op as u8);
                self.expr(right, binary_right(*op, pos));
            }
            Expr::Like { expr, pattern, negated, case_insensitive } => {
                self.code(35);
                self.expr(expr, pos);
                self.expr(pattern, pos);
                self.flag(*negated);
                self.flag(*case_insensitive);
            }
            Expr::Between { expr, low, high, negated } => {
                self.code(36);
                self.expr(expr, pos);
                self.expr(low, pos);
                self.expr(high, pos);
                self.flag(*negated);
            }
            Expr::InList { expr, list, negated } => {
                self.code(37);
                self.expr(expr, pos);
                self.num(list.len() as u64);
                self.cacheable &= self.mode == Mode::Types || list.len() <= MAX_SLOT_IN_LIST;
                for e in list {
                    self.expr(e, pos);
                }
                self.flag(*negated);
            }
            Expr::InSubquery { expr, subquery, negated } => {
                self.code(38);
                self.expr(expr, pos);
                self.subquery(subquery);
                self.flag(*negated);
            }
            Expr::Exists { subquery, negated } => {
                self.code(39);
                self.subquery(subquery);
                self.flag(*negated);
            }
            Expr::ScalarSubquery(q) => {
                self.code(40);
                self.subquery(q);
            }
            Expr::Case { operand, branches, else_result } => {
                self.code(41);
                match operand {
                    Some(o) => {
                        self.code(1);
                        self.expr(o, Pos::Fixed);
                    }
                    None => self.code(0),
                }
                self.num(branches.len() as u64);
                for (w, t) in branches {
                    self.expr(w, Pos::Fixed);
                    self.expr(t, Pos::Fixed);
                }
                match else_result {
                    Some(e) => {
                        self.code(1);
                        self.expr(e, Pos::Fixed);
                    }
                    None => self.code(0),
                }
            }
            Expr::Cast { expr, ty } => {
                self.code(42);
                self.expr(expr, pos);
                self.code(*ty as u8);
            }
            Expr::Func(fc) => {
                self.code(43);
                self.str(&fc.name);
                self.num(fc.args.len() as u64);
                for a in &fc.args {
                    self.expr(a, Pos::Fixed);
                }
                self.flag(fc.distinct);
                self.flag(fc.star);
            }
            Expr::IsNull { expr, negated } => {
                self.code(44);
                self.expr(expr, pos);
                self.flag(*negated);
            }
        }
    }

    fn insert(&mut self, i: &'a ast::Insert) {
        self.str(&i.table);
        self.num(i.columns.len() as u64);
        for c in &i.columns {
            self.str(c);
        }
        match &i.source {
            ast::InsertSource::Values(rows) => {
                self.code(50);
                self.num(rows.len() as u64);
                for row in rows {
                    self.num(row.len() as u64);
                    for e in row {
                        self.expr(e, Pos::Value);
                    }
                }
            }
            ast::InsertSource::Query(q) => {
                self.code(51);
                self.select(q);
            }
        }
        match &i.on_conflict {
            None => self.code(0),
            Some(oc) => {
                self.code(1);
                self.num(oc.target.len() as u64);
                for t in &oc.target {
                    self.str(t);
                }
                match &oc.action {
                    ast::ConflictAction::Nothing => self.code(52),
                    ast::ConflictAction::Update(assigns) => {
                        self.code(53);
                        self.assignments(assigns);
                    }
                }
            }
        }
    }

    fn assignments(&mut self, assigns: &'a [ast::Assignment]) {
        self.num(assigns.len() as u64);
        for a in assigns {
            self.str(&a.column);
            self.expr(&a.value, Pos::Value);
        }
    }
}

/// The mutable twin of [`StructuralHasher`]'s generic mode: visits exactly
/// the value positions, in the same order, replacing each slot literal with
/// the next `$n`. Fixed-position subtrees hold no slots and are skipped.
struct Parameterizer {
    slots: Vec<Literal>,
}

impl Parameterizer {
    fn opt(&mut self, e: &mut Option<Expr>) {
        if let Some(e) = e {
            self.value(e);
        }
    }

    fn select(&mut self, s: &mut ast::Select) {
        for f in &mut s.from {
            self.table_ref(f);
        }
        self.opt(&mut s.where_clause);
    }

    fn table_ref(&mut self, t: &mut ast::TableRef) {
        if let ast::TableRef::Join { left, right, on, .. } = t {
            self.table_ref(left);
            self.table_ref(right);
            self.opt(on);
        }
    }

    fn insert(&mut self, i: &mut ast::Insert) {
        match &mut i.source {
            ast::InsertSource::Values(rows) => {
                for e in rows.iter_mut().flatten() {
                    self.value(e);
                }
            }
            ast::InsertSource::Query(q) => self.select(q),
        }
        if let Some(ast::OnConflict { action: ast::ConflictAction::Update(a), .. }) =
            &mut i.on_conflict
        {
            self.assignments(a);
        }
    }

    fn assignments(&mut self, assigns: &mut [ast::Assignment]) {
        for a in assigns {
            self.value(&mut a.value);
        }
    }

    /// An expression in a value position.
    fn value(&mut self, e: &mut Expr) {
        match e {
            Expr::Literal(l) => {
                self.slots.push(std::mem::replace(l, Literal::Null));
                *e = Expr::Param(self.slots.len());
            }
            Expr::Unary { expr, .. } | Expr::Cast { expr, .. } | Expr::IsNull { expr, .. } => {
                self.value(expr)
            }
            Expr::Binary { left, op, right } => {
                self.value(left);
                if binary_right(*op, Pos::Value) == Pos::Value {
                    self.value(right);
                }
            }
            Expr::Like { expr, pattern, .. } => {
                self.value(expr);
                self.value(pattern);
            }
            Expr::Between { expr, low, high, .. } => {
                self.value(expr);
                self.value(low);
                self.value(high);
            }
            Expr::InList { expr, list, .. } => {
                self.value(expr);
                for item in list {
                    self.value(item);
                }
            }
            // fixed positions (CASE arms, function arguments), leaves, and
            // subqueries (which have no generic form)
            Expr::Param(_)
            | Expr::Column { .. }
            | Expr::Case { .. }
            | Expr::Func(_)
            | Expr::InSubquery { .. }
            | Expr::Exists { .. }
            | Expr::ScalarSubquery(_) => {}
        }
    }
}

const MARKER: &[u8] = b"Literal(";

/// Streaming shape hasher for non-CRUD statements: consumes the AST's
/// `Debug` rendering chunk by chunk (no intermediate `String`), hashing
/// every byte except `Literal(…)` spans, which collapse to a `?`
/// placeholder. The span skip is quote-aware so parentheses inside string
/// literals do not derail matching, and the marker match survives chunk
/// boundaries (`Debug` emits many small writes).
struct DebugShapeHasher {
    h: u64,
    /// Paren depth inside a `Literal(` span being elided; 0 = hashing.
    skip_depth: usize,
    in_str: bool,
    escaped: bool,
    /// Bytes of `MARKER` matched so far while hashing.
    matched: usize,
}

impl DebugShapeHasher {
    fn new() -> DebugShapeHasher {
        DebugShapeHasher { h: FNV_OFFSET, skip_depth: 0, in_str: false, escaped: false, matched: 0 }
    }

    fn hash_byte(&mut self, b: u8) {
        self.h ^= b as u64;
        self.h = self.h.wrapping_mul(FNV_PRIME);
    }

    fn feed(&mut self, b: u8) {
        if self.skip_depth > 0 {
            if self.escaped {
                self.escaped = false;
                return;
            }
            match b {
                b'\\' if self.in_str => self.escaped = true,
                b'"' => self.in_str = !self.in_str,
                b'(' if !self.in_str => self.skip_depth += 1,
                b')' if !self.in_str => {
                    self.skip_depth -= 1;
                    if self.skip_depth == 0 {
                        self.hash_byte(b'?');
                    }
                }
                _ => {}
            }
            return;
        }
        if b == MARKER[self.matched] {
            self.matched += 1;
            if self.matched == MARKER.len() {
                for &m in MARKER {
                    self.hash_byte(m);
                }
                self.matched = 0;
                self.skip_depth = 1;
                self.in_str = false;
            }
            return;
        }
        // mismatch: flush the partial marker, then retry this byte from the
        // start of the pattern (no byte of MARKER recurs as a proper border,
        // so a plain restart is exact)
        for &m in &MARKER[..self.matched] {
            self.hash_byte(m);
        }
        self.matched = 0;
        if b == MARKER[0] {
            self.matched = 1;
        } else {
            self.hash_byte(b);
        }
    }

    fn finish(mut self) -> u64 {
        for &m in &MARKER[..self.matched] {
            self.hash_byte(m);
        }
        self.h
    }
}

impl std::fmt::Write for DebugShapeHasher {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for &b in s.as_bytes() {
            self.feed(b);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn shape(sql: &str) -> u64 {
        shape_hash(&parse(sql).unwrap())
    }

    fn generic(sql: &str) -> Option<(u64, Vec<Literal>)> {
        let stmt = parse(sql).unwrap();
        generic_shape(&stmt).map(|g| (g.key, g.slots.into_iter().cloned().collect()))
    }

    #[test]
    fn constants_are_parameterized_away() {
        let a = shape("SELECT v FROM t WHERE k = 1");
        assert_eq!(a, shape("SELECT v FROM t WHERE k = 42"), "same-typed constants share");
        assert_eq!(
            shape("SELECT v FROM t WHERE k = 'x(y)'"),
            shape("SELECT v FROM t WHERE k = 'z'"),
            "string constants (with parens) share too"
        );
    }

    #[test]
    fn literal_types_change_the_shape() {
        let int = shape("SELECT v FROM t WHERE k = 1");
        assert_ne!(int, shape("SELECT v FROM t WHERE k = '1'"), "int vs text");
        assert_ne!(int, shape("SELECT v FROM t WHERE k = 1.5"), "int vs float");
        assert_ne!(int, shape("SELECT v FROM t WHERE k = NULL"), "int vs null");
        let (g_int, _) = generic("SELECT v FROM t WHERE k = 1").unwrap();
        let (g_text, _) = generic("SELECT v FROM t WHERE k = '1'").unwrap();
        assert_ne!(g_int, g_text, "the generic key hashes slot types too");
    }

    #[test]
    fn structure_changes_the_shape() {
        let base = shape("SELECT v FROM t WHERE k = 1");
        assert_ne!(base, shape("SELECT v FROM u WHERE k = 1"), "table");
        assert_ne!(base, shape("SELECT w FROM t WHERE k = 1"), "column");
        assert_ne!(base, shape("SELECT v FROM t WHERE k > 1"), "operator");
        assert_ne!(base, shape("SELECT v FROM t WHERE k = 1 AND v = 2"), "extra conjunct");
        assert_ne!(
            shape("INSERT INTO t VALUES (1, 'a')"),
            shape("UPDATE t SET v = 'a' WHERE k = 1"),
            "statement kind"
        );
        assert_eq!(
            shape("INSERT INTO t VALUES (1, 'a')"),
            shape("INSERT INTO t VALUES (2, 'b')"),
            "same insert shape"
        );
    }

    #[test]
    fn fixed_positions_key_by_value() {
        let g = |sql| generic(sql).unwrap().0;
        assert_ne!(g("SELECT v FROM t LIMIT 1"), g("SELECT v FROM t LIMIT 2"), "limit");
        assert_ne!(g("SELECT v FROM t ORDER BY 1"), g("SELECT v, k FROM t ORDER BY 2"), "order");
        assert_ne!(
            g("SELECT v FROM t WHERE d->>'a' = 'x'"),
            g("SELECT v FROM t WHERE d->>'b' = 'x'"),
            "json key"
        );
        assert_eq!(
            g("SELECT v FROM t WHERE d->>'a' = 'x'"),
            g("SELECT v FROM t WHERE d->>'a' = 'y'"),
            "the compared value is a slot"
        );
        assert_ne!(
            g("SELECT v + 1 FROM t GROUP BY v + 1"),
            g("SELECT v + 2 FROM t GROUP BY v + 2"),
            "select-list literals are fixed"
        );
        // shape_hash elides every value, fixed positions included
        assert_eq!(shape("SELECT v FROM t LIMIT 1"), shape("SELECT v FROM t LIMIT 2"));
    }

    #[test]
    fn slots_come_out_in_walk_order() {
        let (_, slots) = generic(
            "UPDATE t SET a = 5, b = b + 'x' WHERE k = 7 AND v IN (1, 2) AND d->>'f' = 'g'",
        )
        .unwrap();
        assert_eq!(
            slots,
            vec![
                Literal::Int(5),
                Literal::String("x".into()),
                Literal::Int(7),
                Literal::Int(1),
                Literal::Int(2),
                Literal::String("g".into()),
            ]
        );
    }

    #[test]
    fn no_generic_form_for_subqueries_params_and_utility() {
        assert!(generic("SELECT v FROM t WHERE k IN (SELECT k FROM u)").is_none());
        assert!(generic("SELECT v FROM (SELECT v FROM t) s").is_none());
        assert!(generic("SELECT v FROM t WHERE k = $1").is_none());
        assert!(generic("BEGIN").is_none());
        let long_in: Vec<String> = (0..=MAX_SLOT_IN_LIST).map(|i| i.to_string()).collect();
        assert!(generic(&format!("SELECT v FROM t WHERE k IN ({})", long_in.join(", "))).is_none());
        let many: Vec<String> = (0..=MAX_SLOTS).map(|i| format!("({i})")).collect();
        assert!(generic(&format!("INSERT INTO t VALUES {}", many.join(", "))).is_none());
        assert!(generic("SELECT v FROM t WHERE k = 1").is_some());
    }

    /// Put slot values back into a parameterized statement's `$n` places.
    fn substitute(e: &mut Expr, slots: &[Literal]) {
        if let Expr::Param(n) = e {
            *e = Expr::Literal(slots[*n - 1].clone());
            return;
        }
        let mut children: Vec<&mut Expr> = Vec::new();
        match e {
            Expr::Unary { expr, .. } | Expr::Cast { expr, .. } | Expr::IsNull { expr, .. } => {
                children.push(expr)
            }
            Expr::Binary { left, right, .. } => children.extend([&mut **left, &mut **right]),
            Expr::Like { expr, pattern, .. } => children.extend([&mut **expr, &mut **pattern]),
            Expr::Between { expr, low, high, .. } => {
                children.extend([&mut **expr, &mut **low, &mut **high])
            }
            Expr::InList { expr, list, .. } => {
                children.push(expr);
                children.extend(list.iter_mut());
            }
            _ => {}
        }
        for c in children {
            substitute(c, slots);
        }
    }

    #[test]
    fn parameterize_agrees_with_generic_shape() {
        let corpus = [
            "SELECT v, count(*) FROM t JOIN u ON u.k = t.k AND u.z > 3 \
             WHERE t.k = 1 AND t.v BETWEEN 2 AND 3.5 AND t.s LIKE 'a%' \
             GROUP BY v ORDER BY 2 DESC LIMIT 10",
            "INSERT INTO t (a, b, c) VALUES (1, 'x', NULL), (2, -3.5, true)",
            "INSERT INTO t VALUES (1, 2) ON CONFLICT (a) DO UPDATE SET b = excluded.b + 1",
            "UPDATE t SET a = a - 1, b = lower('X') WHERE k = 3 AND d->>'q' = 'w'",
            "DELETE FROM t WHERE k = 9 AND NOT (v IS NULL) AND w = '2020-01-01'::timestamp",
            "INSERT INTO t SELECT a, 7 FROM u WHERE b = 4",
        ];
        for sql in corpus {
            let stmt = parse(sql).unwrap();
            let slots: Vec<Literal> =
                generic_shape(&stmt).unwrap().slots.into_iter().cloned().collect();
            let (generic_stmt, replaced) = parameterize(&stmt);
            assert_eq!(slots, replaced, "slot order for {sql}");
            // the parameterized form hashes like the original minus values
            let mut back = generic_stmt.clone();
            match &mut back {
                Statement::Select(s) => {
                    for e in s.where_clause.iter_mut() {
                        substitute(e, &replaced);
                    }
                    for f in &mut s.from {
                        if let ast::TableRef::Join { on: Some(on), .. } = f {
                            substitute(on, &replaced);
                        }
                    }
                }
                Statement::Insert(i) => {
                    if let ast::InsertSource::Values(rows) = &mut i.source {
                        for e in rows.iter_mut().flatten() {
                            substitute(e, &replaced);
                        }
                    }
                    if let ast::InsertSource::Query(q) = &mut i.source {
                        for e in q.where_clause.iter_mut() {
                            substitute(e, &replaced);
                        }
                    }
                    if let Some(ast::OnConflict {
                        action: ast::ConflictAction::Update(assigns),
                        ..
                    }) = &mut i.on_conflict
                    {
                        for a in assigns {
                            substitute(&mut a.value, &replaced);
                        }
                    }
                }
                Statement::Update(u) => {
                    for a in &mut u.assignments {
                        substitute(&mut a.value, &replaced);
                    }
                    for e in u.where_clause.iter_mut() {
                        substitute(e, &replaced);
                    }
                }
                Statement::Delete(d) => {
                    for e in d.where_clause.iter_mut() {
                        substitute(e, &replaced);
                    }
                }
                _ => unreachable!(),
            }
            assert_eq!(back, stmt, "substituting the slots back restores {sql}");
        }
    }
}
