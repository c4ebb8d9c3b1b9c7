//! Statement execution over a [`Database`] of clustered tables.

use crate::ast::{AggFunc, Projection, Select, Statement};
use crate::plan::{compile_predicate, resolve_expr};
use crate::table::Table;
use prorp_types::ProrpError;
use std::collections::HashMap;

/// Named parameter bindings (`@name -> value`).
#[derive(Clone, Debug, Default)]
pub struct Params {
    values: HashMap<String, i64>,
}

impl Params {
    /// Empty binding set.
    pub fn new() -> Self {
        Params::default()
    }

    /// Bind `@name` to `value` (replacing any previous binding).
    pub fn bind(&mut self, name: impl Into<String>, value: i64) -> &mut Self {
        self.values.insert(name.into(), value);
        self
    }

    /// Look up a binding.
    pub fn get(&self, name: &str) -> Option<i64> {
        self.values.get(name).copied()
    }
}

/// Rows returned by a `SELECT`.  `None` cells are SQL `NULL` (only
/// produced by `MIN`/`MAX` over an empty input).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResultSet {
    /// Output column labels.
    pub columns: Vec<String>,
    /// Row data.
    pub rows: Vec<Vec<Option<i64>>>,
}

impl ResultSet {
    /// The single cell of a one-row, one-column result (aggregates).
    pub fn scalar(&self) -> Result<Option<i64>, ProrpError> {
        if self.rows.len() == 1 && self.rows[0].len() == 1 {
            Ok(self.rows[0][0])
        } else {
            Err(ProrpError::Sql(format!(
                "expected a scalar result, got {}x{}",
                self.rows.len(),
                self.rows.first().map_or(0, Vec::len)
            )))
        }
    }
}

/// Outcome of executing one statement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExecOutcome {
    /// Rows inserted or deleted (0 for `SELECT`/`CREATE`).
    pub rows_affected: usize,
    /// Result rows for `SELECT`, otherwise `None`.
    pub result: Option<ResultSet>,
}

/// A collection of named tables.
#[derive(Clone, Debug, Default)]
pub struct Database {
    tables: HashMap<String, Table>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Parse and execute one SQL statement.
    pub fn run(&mut self, sql: &str, params: &Params) -> Result<ExecOutcome, ProrpError> {
        let stmt = crate::parser::parse_statement(sql)?;
        self.execute(&stmt, params)
    }

    /// Execute a parsed statement.
    pub fn execute(
        &mut self,
        stmt: &Statement,
        params: &Params,
    ) -> Result<ExecOutcome, ProrpError> {
        match stmt {
            Statement::CreateTable { name, columns } => {
                if self.tables.contains_key(name) {
                    return Err(ProrpError::Sql(format!("table {name} already exists")));
                }
                let table = Table::new(name.clone(), columns.clone())?;
                self.tables.insert(name.clone(), table);
                Ok(ExecOutcome {
                    rows_affected: 0,
                    result: None,
                })
            }
            Statement::Insert {
                table,
                columns,
                values,
            } => {
                if columns.len() != values.len() {
                    return Err(ProrpError::Sql(format!(
                        "INSERT into {table} lists {} columns but {} values",
                        columns.len(),
                        values.len()
                    )));
                }
                // Resolve values before borrowing the table mutably.
                let resolved: Vec<i64> = values
                    .iter()
                    .map(|e| resolve_expr(e, params))
                    .collect::<Result<_, _>>()?;
                let t = self.table_mut(table)?;
                let mut row = vec![None::<i64>; t.columns().len()];
                for (col, v) in columns.iter().zip(resolved) {
                    let idx = t.column_index(col)?;
                    if row[idx].is_some() {
                        return Err(ProrpError::Sql(format!(
                            "column {col} specified twice in INSERT"
                        )));
                    }
                    row[idx] = Some(v);
                }
                let row: Vec<i64> = row
                    .into_iter()
                    .enumerate()
                    .map(|(i, v)| {
                        v.ok_or_else(|| {
                            ProrpError::Sql(format!(
                                "INSERT into {table} misses a value for column {}",
                                t.columns()[i].name
                            ))
                        })
                    })
                    .collect::<Result<_, _>>()?;
                t.insert_row(row)?;
                Ok(ExecOutcome {
                    rows_affected: 1,
                    result: None,
                })
            }
            Statement::Select(select) => {
                let result = self.select(select, params)?;
                Ok(ExecOutcome {
                    rows_affected: 0,
                    result: Some(result),
                })
            }
            Statement::Update {
                table,
                assignments,
                predicate,
            } => {
                let t = self.table(table)?;
                // Resolve assignment targets and values first.
                let resolved: Vec<(usize, i64)> = assignments
                    .iter()
                    .map(|(col, expr)| Ok((t.column_index(col)?, resolve_expr(expr, params)?)))
                    .collect::<Result<_, ProrpError>>()?;
                if let Some((idx, _)) = resolved.iter().find(|(idx, _)| *idx == t.pk_index()) {
                    let col = &t.columns()[*idx].name;
                    return Err(ProrpError::Sql(format!(
                        "cannot UPDATE clustered key column {col}"
                    )));
                }
                let plan = compile_predicate(t, predicate.as_ref(), params)?;
                let pk = t.pk_index();
                let targets: Vec<i64> = if plan.provably_empty {
                    Vec::new()
                } else {
                    t.scan(plan.lo, plan.hi)
                        .filter(|row| plan.row_matches(row))
                        .map(|row| row[pk])
                        .collect()
                };
                let t = self.table_mut(table)?;
                for key in &targets {
                    for (idx, value) in &resolved {
                        t.update_cell(*key, *idx, *value)?;
                    }
                }
                Ok(ExecOutcome {
                    rows_affected: targets.len(),
                    result: None,
                })
            }
            Statement::Delete { table, predicate } => {
                let t = self.table(table)?;
                let plan = compile_predicate(t, predicate.as_ref(), params)?;
                if plan.provably_empty {
                    return Ok(ExecOutcome {
                        rows_affected: 0,
                        result: None,
                    });
                }
                let pk = t.pk_index();
                let doomed: Vec<i64> = t
                    .scan(plan.lo, plan.hi)
                    .filter(|row| plan.row_matches(row))
                    .map(|row| row[pk])
                    .collect();
                let t = self.table_mut(table)?;
                for key in &doomed {
                    t.delete_key(*key);
                }
                Ok(ExecOutcome {
                    rows_affected: doomed.len(),
                    result: None,
                })
            }
        }
    }

    fn select(&self, select: &Select, params: &Params) -> Result<ResultSet, ProrpError> {
        let t = self.table(&select.table)?;
        let plan = compile_predicate(t, select.predicate.as_ref(), params)?;

        let has_aggregate = select
            .projections
            .iter()
            .any(|p| matches!(p, Projection::Aggregate(..)));
        let has_scalar = select
            .projections
            .iter()
            .any(|p| matches!(p, Projection::Star | Projection::Column(_)));
        if has_aggregate && has_scalar {
            return Err(ProrpError::Sql(
                "cannot mix aggregates and plain columns without GROUP BY".into(),
            ));
        }

        if has_aggregate {
            // One pass over the matching rows computing all aggregates.
            let mut count: i64 = 0;
            let mut mins: Vec<Option<i64>> = vec![None; select.projections.len()];
            let mut maxs: Vec<Option<i64>> = vec![None; select.projections.len()];
            // Pre-resolve aggregate argument columns.
            let args: Vec<Option<usize>> = select
                .projections
                .iter()
                .map(|p| match p {
                    Projection::Aggregate(_, Some(col)) => t.column_index(col).map(Some),
                    Projection::Aggregate(_, None) => Ok(None),
                    _ => unreachable!("scalar projections rejected above"),
                })
                .collect::<Result<_, _>>()?;
            if !plan.provably_empty {
                for row in t.scan(plan.lo, plan.hi) {
                    if !plan.row_matches(row) {
                        continue;
                    }
                    count += 1;
                    for (i, arg) in args.iter().enumerate() {
                        if let Some(col) = arg {
                            let v = row[*col];
                            mins[i] = Some(mins[i].map_or(v, |m: i64| m.min(v)));
                            maxs[i] = Some(maxs[i].map_or(v, |m: i64| m.max(v)));
                        }
                    }
                }
            }
            let mut labels = Vec::with_capacity(select.projections.len());
            let mut row = Vec::with_capacity(select.projections.len());
            for (i, p) in select.projections.iter().enumerate() {
                match p {
                    Projection::Aggregate(AggFunc::Count, arg) => {
                        labels.push(match arg {
                            Some(c) => format!("COUNT({c})"),
                            None => "COUNT(*)".to_string(),
                        });
                        row.push(Some(count));
                    }
                    Projection::Aggregate(AggFunc::Min, Some(c)) => {
                        labels.push(format!("MIN({c})"));
                        row.push(mins[i]);
                    }
                    Projection::Aggregate(AggFunc::Max, Some(c)) => {
                        labels.push(format!("MAX({c})"));
                        row.push(maxs[i]);
                    }
                    _ => unreachable!("parser guarantees MIN/MAX carry a column"),
                }
            }
            return Ok(ResultSet {
                columns: labels,
                rows: vec![row],
            });
        }

        // Plain projection.
        let (labels, indices): (Vec<String>, Vec<usize>) = {
            let mut labels = Vec::new();
            let mut indices = Vec::new();
            for p in &select.projections {
                match p {
                    Projection::Star => {
                        for (i, c) in t.columns().iter().enumerate() {
                            labels.push(c.name.clone());
                            indices.push(i);
                        }
                    }
                    Projection::Column(c) => {
                        indices.push(t.column_index(c)?);
                        labels.push(c.clone());
                    }
                    Projection::Aggregate(..) => unreachable!("handled above"),
                }
            }
            (labels, indices)
        };

        let mut matched: Vec<&Vec<i64>> = if plan.provably_empty {
            Vec::new()
        } else {
            t.scan(plan.lo, plan.hi)
                .filter(|row| plan.row_matches(row))
                .collect()
        };

        if let Some(order) = &select.order_by {
            let col = t.column_index(&order.column)?;
            if col == t.pk_index() {
                // Already ascending by clustered key.
                if order.desc {
                    matched.reverse();
                }
            } else {
                matched.sort_by_key(|row| row[col]);
                if order.desc {
                    matched.reverse();
                }
            }
        }
        if let Some(limit) = select.limit {
            matched.truncate(limit);
        }

        let rows = matched
            .into_iter()
            .map(|row| indices.iter().map(|&i| Some(row[i])).collect())
            .collect();
        Ok(ResultSet {
            columns: labels,
            rows,
        })
    }

    /// Borrow a table.
    pub fn table(&self, name: &str) -> Result<&Table, ProrpError> {
        self.tables
            .get(name)
            .ok_or_else(|| ProrpError::Sql(format!("unknown table {name}")))
    }

    fn table_mut(&mut self, name: &str) -> Result<&mut Table, ProrpError> {
        self.tables
            .get_mut(name)
            .ok_or_else(|| ProrpError::Sql(format!("unknown table {name}")))
    }

    /// Describe the access plan of a `SELECT`, `UPDATE`, or `DELETE`
    /// without executing it — a minimal `EXPLAIN`.
    ///
    /// The description names the access path (clustered-index range scan
    /// vs full scan), the resolved key bounds, and the residual filters,
    /// which is exactly what the complexity claims of §5-§6 depend on.
    ///
    /// # Errors
    ///
    /// Propagates parse and binding failures.
    pub fn explain(&self, sql: &str, params: &Params) -> Result<String, ProrpError> {
        use std::fmt::Write as _;
        let stmt = crate::parser::parse_statement(sql)?;
        let (verb, table_name, predicate) = match &stmt {
            Statement::Select(s) => ("SELECT", &s.table, s.predicate.as_ref()),
            Statement::Update {
                table, predicate, ..
            } => ("UPDATE", table, predicate.as_ref()),
            Statement::Delete { table, predicate } => ("DELETE", table, predicate.as_ref()),
            Statement::CreateTable { .. } | Statement::Insert { .. } => {
                return Err(ProrpError::Sql(
                    "EXPLAIN supports SELECT, UPDATE, and DELETE".into(),
                ))
            }
        };
        let t = self.table(table_name)?;
        let plan = compile_predicate(t, predicate, params)?;
        let mut out = String::new();
        let _ = writeln!(out, "{verb} on {table_name} ({} rows)", t.len());
        if plan.provably_empty {
            let _ = writeln!(out, "  -> empty result (contradictory key bounds)");
            return Ok(out);
        }
        fn render_bound(b: std::ops::Bound<i64>, lower: bool) -> String {
            match (b, lower) {
                (std::ops::Bound::Unbounded, _) => "unbounded".to_string(),
                (std::ops::Bound::Included(v), true) => format!(">= {v}"),
                (std::ops::Bound::Excluded(v), true) => format!("> {v}"),
                (std::ops::Bound::Included(v), false) => format!("<= {v}"),
                (std::ops::Bound::Excluded(v), false) => format!("< {v}"),
            }
        }
        match (plan.lo, plan.hi) {
            (std::ops::Bound::Unbounded, std::ops::Bound::Unbounded) => {
                let _ = writeln!(out, "  -> full clustered-index scan on {}", t.pk_name());
            }
            (lo, hi) => {
                let _ = writeln!(
                    out,
                    "  -> clustered-index range scan on {} ({}, {})",
                    t.pk_name(),
                    render_bound(lo, true),
                    render_bound(hi, false)
                );
            }
        }
        if plan.residual.is_empty() {
            let _ = writeln!(out, "  -> no residual filter");
        } else {
            for f in &plan.residual {
                let _ = writeln!(
                    out,
                    "  -> residual filter: {} {} {}",
                    t.columns()[f.column].name,
                    f.op,
                    f.value
                );
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn history_db() -> Database {
        let mut db = Database::new();
        db.run(
            "CREATE TABLE h (time_snapshot BIGINT PRIMARY KEY, event_type INT)",
            &Params::new(),
        )
        .unwrap();
        for (ts, et) in [(10, 1), (20, 0), (30, 1), (40, 0), (50, 1)] {
            let mut p = Params::new();
            p.bind("t", ts).bind("e", et);
            db.run(
                "INSERT INTO h (time_snapshot, event_type) VALUES (@t, @e)",
                &p,
            )
            .unwrap();
        }
        db
    }

    #[test]
    fn create_twice_fails() {
        let mut db = history_db();
        assert!(db
            .run("CREATE TABLE h (a BIGINT PRIMARY KEY)", &Params::new())
            .is_err());
    }

    #[test]
    fn select_star_returns_all_rows_in_key_order() {
        let mut db = history_db();
        let out = db.run("SELECT * FROM h", &Params::new()).unwrap();
        let rs = out.result.unwrap();
        assert_eq!(rs.columns, vec!["time_snapshot", "event_type"]);
        let keys: Vec<i64> = rs.rows.iter().map(|r| r[0].unwrap()).collect();
        assert_eq!(keys, vec![10, 20, 30, 40, 50]);
    }

    #[test]
    fn where_range_uses_bounds() {
        let mut db = history_db();
        let out = db
            .run(
                "SELECT time_snapshot FROM h WHERE time_snapshot >= 20 AND time_snapshot < 50",
                &Params::new(),
            )
            .unwrap();
        let keys: Vec<i64> = out
            .result
            .unwrap()
            .rows
            .iter()
            .map(|r| r[0].unwrap())
            .collect();
        assert_eq!(keys, vec![20, 30, 40]);
    }

    #[test]
    fn aggregates_over_filter() {
        let mut db = history_db();
        let out = db
            .run(
                "SELECT MIN(time_snapshot), MAX(time_snapshot), COUNT(*) FROM h WHERE event_type = 1",
                &Params::new(),
            )
            .unwrap();
        let rs = out.result.unwrap();
        assert_eq!(rs.rows, vec![vec![Some(10), Some(50), Some(3)]]);
        assert_eq!(
            rs.columns,
            vec!["MIN(time_snapshot)", "MAX(time_snapshot)", "COUNT(*)"]
        );
    }

    #[test]
    fn aggregates_over_empty_input_yield_null_and_zero() {
        let mut db = history_db();
        let out = db
            .run(
                "SELECT MIN(time_snapshot), COUNT(*) FROM h WHERE time_snapshot > 1000",
                &Params::new(),
            )
            .unwrap();
        assert_eq!(out.result.unwrap().rows, vec![vec![None, Some(0)]]);
    }

    #[test]
    fn scalar_helper() {
        let mut db = history_db();
        let out = db.run("SELECT COUNT(*) FROM h", &Params::new()).unwrap();
        assert_eq!(out.result.unwrap().scalar().unwrap(), Some(5));
        let out = db.run("SELECT * FROM h", &Params::new()).unwrap();
        assert!(out.result.unwrap().scalar().is_err());
    }

    #[test]
    fn delete_with_range_and_residual() {
        let mut db = history_db();
        let out = db
            .run(
                "DELETE FROM h WHERE time_snapshot > 10 AND time_snapshot < 50 AND event_type = 0",
                &Params::new(),
            )
            .unwrap();
        assert_eq!(out.rows_affected, 2); // 20 and 40
        let remaining = db.run("SELECT COUNT(*) FROM h", &Params::new()).unwrap();
        assert_eq!(remaining.result.unwrap().scalar().unwrap(), Some(3));
    }

    #[test]
    fn delete_without_predicate_clears_table() {
        let mut db = history_db();
        let out = db.run("DELETE FROM h", &Params::new()).unwrap();
        assert_eq!(out.rows_affected, 5);
        let count = db.run("SELECT COUNT(*) FROM h", &Params::new()).unwrap();
        assert_eq!(count.result.unwrap().scalar().unwrap(), Some(0));
    }

    #[test]
    fn contradictory_predicate_short_circuits() {
        let mut db = history_db();
        let out = db
            .run(
                "SELECT COUNT(*) FROM h WHERE time_snapshot > 40 AND time_snapshot < 20",
                &Params::new(),
            )
            .unwrap();
        assert_eq!(out.result.unwrap().scalar().unwrap(), Some(0));
    }

    #[test]
    fn order_by_and_limit() {
        let mut db = history_db();
        let out = db
            .run(
                "SELECT time_snapshot FROM h ORDER BY time_snapshot DESC LIMIT 2",
                &Params::new(),
            )
            .unwrap();
        let keys: Vec<i64> = out
            .result
            .unwrap()
            .rows
            .iter()
            .map(|r| r[0].unwrap())
            .collect();
        assert_eq!(keys, vec![50, 40]);
        // Order by a non-key column.
        let out = db
            .run(
                "SELECT time_snapshot, event_type FROM h ORDER BY event_type ASC",
                &Params::new(),
            )
            .unwrap();
        let et: Vec<i64> = out
            .result
            .unwrap()
            .rows
            .iter()
            .map(|r| r[1].unwrap())
            .collect();
        assert_eq!(et, vec![0, 0, 1, 1, 1]);
    }

    #[test]
    fn insert_errors() {
        let mut db = history_db();
        // Unknown column.
        assert!(db
            .run(
                "INSERT INTO h (nope, event_type) VALUES (1, 2)",
                &Params::new()
            )
            .is_err());
        // Missing column.
        assert!(db
            .run("INSERT INTO h (time_snapshot) VALUES (99)", &Params::new())
            .is_err());
        // Duplicate column.
        assert!(db
            .run(
                "INSERT INTO h (time_snapshot, time_snapshot) VALUES (99, 99)",
                &Params::new()
            )
            .is_err());
        // Arity mismatch.
        assert!(db
            .run(
                "INSERT INTO h (time_snapshot, event_type) VALUES (99)",
                &Params::new()
            )
            .is_err());
        // Duplicate key.
        assert!(db
            .run(
                "INSERT INTO h (time_snapshot, event_type) VALUES (10, 1)",
                &Params::new()
            )
            .is_err());
    }

    #[test]
    fn mixing_aggregates_and_columns_is_rejected() {
        let mut db = history_db();
        assert!(db
            .run("SELECT time_snapshot, COUNT(*) FROM h", &Params::new())
            .is_err());
    }

    #[test]
    fn update_changes_matching_rows() {
        let mut db = history_db();
        let out = db
            .run(
                "UPDATE h SET event_type = 9 WHERE time_snapshot >= 20 AND time_snapshot <= 40",
                &Params::new(),
            )
            .unwrap();
        assert_eq!(out.rows_affected, 3);
        let rs = db
            .run(
                "SELECT COUNT(*) FROM h WHERE event_type = 9",
                &Params::new(),
            )
            .unwrap();
        assert_eq!(rs.result.unwrap().scalar().unwrap(), Some(3));
    }

    #[test]
    fn update_without_predicate_touches_everything() {
        let mut db = history_db();
        let out = db
            .run("UPDATE h SET event_type = 5", &Params::new())
            .unwrap();
        assert_eq!(out.rows_affected, 5);
    }

    #[test]
    fn update_with_params_and_multiple_assignments_errors_on_pk() {
        let mut db = history_db();
        // Updating the clustered key is rejected.
        let err = db
            .run("UPDATE h SET time_snapshot = 1", &Params::new())
            .unwrap_err();
        assert!(err.to_string().contains("clustered key"), "{err}");
        // Parameterised update works.
        let mut p = Params::new();
        p.bind("v", 7);
        let out = db
            .run("UPDATE h SET event_type = @v WHERE time_snapshot = 10", &p)
            .unwrap();
        assert_eq!(out.rows_affected, 1);
        // Contradictory predicate short-circuits.
        let out = db
            .run(
                "UPDATE h SET event_type = 1 WHERE time_snapshot > 5 AND time_snapshot < 3",
                &Params::new(),
            )
            .unwrap();
        assert_eq!(out.rows_affected, 0);
    }

    #[test]
    fn explain_describes_the_access_path() {
        let db = {
            let mut db = history_db();
            let _ = &mut db;
            db
        };
        let mut params = Params::new();
        params.bind("lo", 15).bind("hi", 45);
        let plan = db
            .explain(
                "SELECT COUNT(*) FROM h WHERE time_snapshot >= @lo AND time_snapshot < @hi AND event_type = 1",
                &params,
            )
            .unwrap();
        assert!(plan.contains("range scan on time_snapshot"), "{plan}");
        assert!(plan.contains(">= 15"), "{plan}");
        assert!(plan.contains("< 45"), "{plan}");
        assert!(plan.contains("residual filter: event_type = 1"), "{plan}");

        let full = db.explain("SELECT * FROM h", &Params::new()).unwrap();
        assert!(full.contains("full clustered-index scan"), "{full}");

        let empty = db
            .explain(
                "DELETE FROM h WHERE time_snapshot > 10 AND time_snapshot < 5",
                &Params::new(),
            )
            .unwrap();
        assert!(empty.contains("empty result"), "{empty}");

        assert!(db
            .explain(
                "INSERT INTO h (time_snapshot, event_type) VALUES (1, 1)",
                &Params::new()
            )
            .is_err());
    }

    #[test]
    fn unknown_table_is_reported() {
        let mut db = Database::new();
        let err = db.run("SELECT * FROM missing", &Params::new()).unwrap_err();
        assert!(err.to_string().contains("missing"));
    }
}
