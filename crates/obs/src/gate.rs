//! Declarative perf gate: TOML rules evaluated against flat metrics.
//!
//! A rule file is a list of `[[rule]]` tables:
//!
//! ```toml
//! default_tolerance = 1e-9
//!
//! [[rule]]
//! name = "intra-component speedup at 4 threads"
//! when = "hardware_threads >= 4"
//! expr = "intra_parallel.thread_speedup_4 >= 1.5"
//!
//! [[rule]]
//! name = "flow solves match the quota recursion closed form"
//! expr = "observability.flow_solves == observability.reps * quota_flow_solves(observability.delta_prime)"
//! ```
//!
//! `expr` is a boolean expression over metric paths (dotted identifiers
//! resolved in the flat metric map), numeric literals, arithmetic
//! (`+ - * / %`), comparisons, `&&`/`||`, parentheses, and registered
//! functions. `when` guards the rule: if it is absent it defaults to true;
//! if it evaluates false **or references a missing metric**, the rule is
//! *skipped* — that is how speedup floors stay conditioned on
//! `hardware_threads >= 4` and on `"speedup": null` fields that a
//! low-core host never produced. A missing metric in `expr` itself is a
//! hard failure: if the guard says the metric must exist, its absence is a
//! regression.
//!
//! Equality comparisons use a relative-plus-absolute tolerance (default
//! `1e-9`, per-rule override via `tolerance = …`) so values that passed
//! through decimal JSON formatting still compare equal.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed rule file.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RuleFile {
    /// Rules in file order.
    pub rules: Vec<Rule>,
    /// File-level default equality tolerance.
    pub default_tolerance: f64,
}

/// One `[[rule]]` table.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Rule {
    /// Display name (falls back to the expression text).
    pub name: String,
    /// The boolean check.
    pub expr: String,
    /// Optional guard; rule is skipped when false or unevaluable.
    pub when: Option<String>,
    /// Per-rule equality tolerance override.
    pub tolerance: Option<f64>,
}

/// Outcome of one rule.
#[derive(Clone, Debug, PartialEq)]
pub enum RuleStatus {
    /// The check held.
    Pass,
    /// The check failed or could not be evaluated; the message says why,
    /// including the values both sides evaluated to.
    Fail(String),
    /// The `when` guard was false or referenced a missing metric.
    Skipped(String),
}

/// One evaluated rule with its outcome.
#[derive(Clone, Debug, PartialEq)]
pub struct RuleOutcome {
    /// The rule's display name.
    pub name: String,
    /// Pass / fail / skipped.
    pub status: RuleStatus,
    /// The resolved left/right values of the rule's top-level comparison
    /// (`None` when the rule was skipped or a side failed to evaluate).
    /// Rendered by [`GateReport::render_explained`] so passing rules are
    /// debuggable from CI logs too, not just failing ones.
    pub detail: Option<String>,
}

/// The result of running a whole rule file.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct GateReport {
    /// One outcome per rule, in file order.
    pub outcomes: Vec<RuleOutcome>,
}

impl GateReport {
    /// Whether any rule failed.
    #[must_use]
    pub fn failed(&self) -> bool {
        self.outcomes
            .iter()
            .any(|o| matches!(o.status, RuleStatus::Fail(_)))
    }

    /// Counts as `(passed, failed, skipped)`.
    #[must_use]
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for o in &self.outcomes {
            match o.status {
                RuleStatus::Pass => c.0 += 1,
                RuleStatus::Fail(_) => c.1 += 1,
                RuleStatus::Skipped(_) => c.2 += 1,
            }
        }
        c
    }

    /// Renders one line per rule plus a summary.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for o in &self.outcomes {
            match &o.status {
                RuleStatus::Pass => {
                    let _ = writeln!(out, "PASS  {}", o.name);
                }
                RuleStatus::Fail(why) => {
                    let _ = writeln!(out, "FAIL  {} — {}", o.name, why);
                }
                RuleStatus::Skipped(why) => {
                    let _ = writeln!(out, "skip  {} — {}", o.name, why);
                }
            }
        }
        let (p, f, s) = self.counts();
        let _ = writeln!(out, "gate: {p} passed, {f} failed, {s} skipped");
        out
    }

    /// Like [`GateReport::render`], but follows every evaluated rule with
    /// an indented line showing the resolved values of both comparison
    /// sides (`dmig obs gate --explain`).
    #[must_use]
    pub fn render_explained(&self) -> String {
        let mut out = String::new();
        for o in &self.outcomes {
            match &o.status {
                RuleStatus::Pass => {
                    let _ = writeln!(out, "PASS  {}", o.name);
                }
                RuleStatus::Fail(why) => {
                    let _ = writeln!(out, "FAIL  {} — {}", o.name, why);
                }
                RuleStatus::Skipped(why) => {
                    let _ = writeln!(out, "skip  {} — {}", o.name, why);
                }
            }
            if let Some(detail) = &o.detail {
                let _ = writeln!(out, "        {detail}");
            }
        }
        let (p, f, s) = self.counts();
        let _ = writeln!(out, "gate: {p} passed, {f} failed, {s} skipped");
        out
    }
}

/// A registered expression function: fixed arity plus the implementation.
type RegisteredFn = (usize, Box<dyn Fn(&[f64]) -> f64>);

/// Functions callable from rule expressions. The crate registers numeric
/// basics; callers (the CLI, `perf_report`) add domain closed forms like
/// `quota_flow_solves` before evaluating.
pub struct FunctionRegistry {
    funcs: BTreeMap<String, RegisteredFn>,
}

impl Default for FunctionRegistry {
    fn default() -> Self {
        let mut r = FunctionRegistry {
            funcs: BTreeMap::new(),
        };
        r.register("abs", 1, |a| a[0].abs());
        r.register("floor", 1, |a| a[0].floor());
        r.register("ceil", 1, |a| a[0].ceil());
        r.register("round", 1, |a| a[0].round());
        r.register("min", 2, |a| a[0].min(a[1]));
        r.register("max", 2, |a| a[0].max(a[1]));
        r
    }
}

impl std::fmt::Debug for FunctionRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FunctionRegistry")
            .field("functions", &self.funcs.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl FunctionRegistry {
    /// Registers (or replaces) a function of fixed `arity`.
    pub fn register<F: Fn(&[f64]) -> f64 + 'static>(&mut self, name: &str, arity: usize, f: F) {
        self.funcs.insert(name.to_string(), (arity, Box::new(f)));
    }

    fn call(&self, name: &str, args: &[f64]) -> Result<f64, EvalError> {
        match self.funcs.get(name) {
            None => Err(EvalError::UnknownFunction(name.to_string())),
            Some((arity, _)) if *arity != args.len() => Err(EvalError::Arity {
                name: name.to_string(),
                expected: *arity,
                got: args.len(),
            }),
            Some((_, f)) => Ok(f(args)),
        }
    }
}

/// Why an expression could not be evaluated.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EvalError {
    /// An identifier did not resolve in the metric map.
    MissingMetric(String),
    /// A called function is not registered.
    UnknownFunction(String),
    /// A function was called with the wrong number of arguments.
    Arity {
        /// Function name.
        name: String,
        /// Registered arity.
        expected: usize,
        /// Arguments supplied.
        got: usize,
    },
    /// The expression text itself is malformed.
    Syntax(String),
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::MissingMetric(m) => write!(f, "metric `{m}` not found"),
            EvalError::UnknownFunction(n) => write!(f, "unknown function `{n}`"),
            EvalError::Arity {
                name,
                expected,
                got,
            } => write!(f, "`{name}` takes {expected} argument(s), got {got}"),
            EvalError::Syntax(s) => write!(f, "syntax error: {s}"),
        }
    }
}

impl std::error::Error for EvalError {}

/// Evaluates one expression against `metrics`, truthiness = nonzero.
///
/// # Errors
///
/// Returns [`EvalError`] for syntax errors, unknown functions, or metric
/// paths absent from the map.
pub fn eval_expr(
    expr: &str,
    metrics: &BTreeMap<String, f64>,
    funcs: &FunctionRegistry,
    eq_tolerance: f64,
) -> Result<f64, EvalError> {
    let tokens = tokenize(expr)?;
    let mut p = ExprParser {
        tokens: &tokens,
        pos: 0,
        depth: 0,
        metrics,
        funcs,
        eq_tolerance,
    };
    let v = p.or_expr()?;
    if p.pos != p.tokens.len() {
        return Err(EvalError::Syntax(format!(
            "unexpected `{}`",
            p.tokens[p.pos]
        )));
    }
    Ok(v)
}

/// Evaluates every rule in `file` against `metrics`.
#[must_use]
pub fn evaluate(
    file: &RuleFile,
    metrics: &BTreeMap<String, f64>,
    funcs: &FunctionRegistry,
) -> GateReport {
    let outcomes = file
        .rules
        .iter()
        .map(|rule| {
            let name = if rule.name.is_empty() {
                rule.expr.clone()
            } else {
                rule.name.clone()
            };
            let tol = rule.tolerance.unwrap_or(file.default_tolerance);
            if let Some(when) = &rule.when {
                match eval_expr(when, metrics, funcs, tol) {
                    Ok(v) if v != 0.0 => {}
                    Ok(_) => {
                        return RuleOutcome {
                            name,
                            status: RuleStatus::Skipped(format!("when `{when}` is false")),
                            detail: None,
                        }
                    }
                    Err(EvalError::MissingMetric(m)) => {
                        return RuleOutcome {
                            name,
                            status: RuleStatus::Skipped(format!(
                                "when `{when}`: metric `{m}` not present"
                            )),
                            detail: None,
                        }
                    }
                    Err(e) => {
                        return RuleOutcome {
                            name,
                            status: RuleStatus::Fail(format!("bad when `{when}`: {e}")),
                            detail: None,
                        }
                    }
                }
            }
            let status = match eval_expr(&rule.expr, metrics, funcs, tol) {
                Ok(v) if v != 0.0 => RuleStatus::Pass,
                Ok(_) => RuleStatus::Fail(explain_failure(&rule.expr, metrics, funcs, tol)),
                Err(e) => RuleStatus::Fail(format!("`{}`: {e}", rule.expr)),
            };
            let detail = comparison_detail(&rule.expr, metrics, funcs, tol);
            RuleOutcome {
                name,
                status,
                detail,
            }
        })
        .collect();
    GateReport { outcomes }
}

/// On failure, re-evaluate both sides of a top-level comparison so the
/// message shows the actual numbers, not just "false".
fn explain_failure(
    expr: &str,
    metrics: &BTreeMap<String, f64>,
    funcs: &FunctionRegistry,
    tol: f64,
) -> String {
    for op in ["==", "!=", "<=", ">=", "<", ">"] {
        // Only a single top-level comparison is explainable this way.
        let parts: Vec<&str> = expr.splitn(2, op).collect();
        if parts.len() == 2 && !parts[0].is_empty() {
            let lhs = eval_expr(parts[0], metrics, funcs, tol);
            let rhs = eval_expr(parts[1], metrics, funcs, tol);
            if let (Ok(l), Ok(r)) = (lhs, rhs) {
                return format!("`{expr}` is false ({l} {op} {r})");
            }
        }
    }
    format!("`{expr}` is false")
}

/// The `--explain` line: both sides of the rule's top-level comparison
/// with the values they resolved to. Falls back to the whole expression's
/// value for rules that are not a single comparison; `None` when nothing
/// evaluates (the Fail message already carries the error).
fn comparison_detail(
    expr: &str,
    metrics: &BTreeMap<String, f64>,
    funcs: &FunctionRegistry,
    tol: f64,
) -> Option<String> {
    for op in ["==", "!=", "<=", ">=", "<", ">"] {
        let parts: Vec<&str> = expr.splitn(2, op).collect();
        if parts.len() == 2 && !parts[0].is_empty() && !parts[1].trim().is_empty() {
            let lhs = eval_expr(parts[0], metrics, funcs, tol);
            let rhs = eval_expr(parts[1], metrics, funcs, tol);
            if let (Ok(l), Ok(r)) = (lhs, rhs) {
                return Some(format!(
                    "left `{}` = {l}, right `{}` = {r}",
                    parts[0].trim(),
                    parts[1].trim()
                ));
            }
            return None;
        }
    }
    eval_expr(expr, metrics, funcs, tol)
        .ok()
        .map(|v| format!("`{expr}` = {v}"))
}

/// Parses a rule file in the TOML subset this crate understands:
/// `[[rule]]` array-of-tables, `key = value` pairs with string, number,
/// and boolean values, `#` comments, blank lines. Unknown keys error (a
/// typoed `exprr` must not silently disable a gate).
///
/// # Errors
///
/// Returns `line-number: message` for the first offending line.
pub fn parse_rules(text: &str) -> Result<RuleFile, String> {
    let mut file = RuleFile {
        rules: Vec::new(),
        default_tolerance: 1e-9,
    };
    let mut in_rule = false;
    for (lineno, raw) in text.lines().enumerate() {
        let line = strip_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        let err = |msg: &str| format!("line {}: {msg}", lineno + 1);
        if line == "[[rule]]" {
            file.rules.push(Rule::default());
            in_rule = true;
            continue;
        }
        if line.starts_with('[') {
            return Err(err(&format!("unsupported table `{line}`")));
        }
        let (key, value) = line
            .split_once('=')
            .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
            .ok_or_else(|| err("expected `key = value`"))?;
        let string_val = || -> Result<String, String> {
            let v = value.as_str();
            if v.len() >= 2 && v.starts_with('"') && v.ends_with('"') {
                Ok(v[1..v.len() - 1]
                    .replace("\\\"", "\"")
                    .replace("\\\\", "\\"))
            } else {
                Err(err(&format!("`{key}` needs a quoted string value")))
            }
        };
        let number_val = || -> Result<f64, String> {
            value
                .parse::<f64>()
                .map_err(|_| err(&format!("`{key}` needs a numeric value")))
        };
        if !in_rule {
            match key.as_str() {
                "default_tolerance" => file.default_tolerance = number_val()?,
                other => return Err(err(&format!("unknown top-level key `{other}`"))),
            }
            continue;
        }
        let rule = file.rules.last_mut().expect("in_rule implies a rule");
        match key.as_str() {
            "name" => rule.name = string_val()?,
            "expr" => rule.expr = string_val()?,
            "when" => rule.when = Some(string_val()?),
            "tolerance" => rule.tolerance = Some(number_val()?),
            other => return Err(err(&format!("unknown rule key `{other}`"))),
        }
    }
    for (i, rule) in file.rules.iter().enumerate() {
        if rule.expr.is_empty() {
            return Err(format!("rule {} has no `expr`", i + 1));
        }
    }
    Ok(file)
}

/// Drops a `#` comment, respecting `"…"` strings.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    let mut prev_backslash = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' if !prev_backslash => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
        prev_backslash = c == '\\' && !prev_backslash;
    }
    line
}

// ---------------------------------------------------------------------------
// Expression lexer + recursive-descent parser/evaluator.

#[derive(Clone, Debug, PartialEq)]
enum Token {
    Num(f64),
    Ident(String),
    Op(&'static str),
    LParen,
    RParen,
    Comma,
}

impl std::fmt::Display for Token {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Token::Num(n) => write!(f, "{n}"),
            Token::Ident(s) => write!(f, "{s}"),
            Token::Op(o) => write!(f, "{o}"),
            Token::LParen => write!(f, "("),
            Token::RParen => write!(f, ")"),
            Token::Comma => write!(f, ","),
        }
    }
}

fn tokenize(text: &str) -> Result<Vec<Token>, EvalError> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        match c {
            b' ' | b'\t' => i += 1,
            b'(' => {
                out.push(Token::LParen);
                i += 1;
            }
            b')' => {
                out.push(Token::RParen);
                i += 1;
            }
            b',' => {
                out.push(Token::Comma);
                i += 1;
            }
            b'0'..=b'9' | b'.' => {
                let start = i;
                while i < bytes.len()
                    && (bytes[i].is_ascii_digit()
                        || bytes[i] == b'.'
                        || bytes[i] == b'e'
                        || bytes[i] == b'E'
                        || ((bytes[i] == b'+' || bytes[i] == b'-')
                            && matches!(bytes[i - 1], b'e' | b'E')))
                {
                    i += 1;
                }
                let text = &text[start..i];
                let n = text
                    .parse::<f64>()
                    .map_err(|_| EvalError::Syntax(format!("bad number `{text}`")))?;
                out.push(Token::Num(n));
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let start = i;
                while i < bytes.len()
                    && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_' || bytes[i] == b'.')
                {
                    i += 1;
                }
                out.push(Token::Ident(text[start..i].to_string()));
            }
            _ => {
                let two = bytes.get(i..i + 2).unwrap_or(&[]);
                let op = match two {
                    b"==" => Some("=="),
                    b"!=" => Some("!="),
                    b"<=" => Some("<="),
                    b">=" => Some(">="),
                    b"&&" => Some("&&"),
                    b"||" => Some("||"),
                    _ => None,
                };
                if let Some(op) = op {
                    out.push(Token::Op(op));
                    i += 2;
                } else {
                    let op = match c {
                        b'<' => "<",
                        b'>' => ">",
                        b'+' => "+",
                        b'-' => "-",
                        b'*' => "*",
                        b'/' => "/",
                        b'%' => "%",
                        other => {
                            return Err(EvalError::Syntax(format!(
                                "unexpected character `{}`",
                                other as char
                            )))
                        }
                    };
                    out.push(Token::Op(op));
                    i += 1;
                }
            }
        }
    }
    Ok(out)
}

/// Deepest nesting of parentheses, call arguments and unary minus an
/// expression may use. The parser recurses once per level, so deeper
/// input is a syntax error instead of a stack overflow.
const MAX_EXPR_DEPTH: usize = 512;

struct ExprParser<'a> {
    tokens: &'a [Token],
    pos: usize,
    /// Nesting levels entered so far (see [`MAX_EXPR_DEPTH`]).
    depth: usize,
    metrics: &'a BTreeMap<String, f64>,
    funcs: &'a FunctionRegistry,
    eq_tolerance: f64,
}

impl ExprParser<'_> {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn eat_op(&mut self, ops: &[&str]) -> Option<&'static str> {
        if let Some(Token::Op(o)) = self.peek() {
            if ops.contains(o) {
                let o = *o;
                self.pos += 1;
                return Some(o);
            }
        }
        None
    }

    /// Runs `parse` one nesting level deeper.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<f64, EvalError>) -> Result<f64, EvalError> {
        if self.depth == MAX_EXPR_DEPTH {
            return Err(EvalError::Syntax(format!(
                "expression nests deeper than {MAX_EXPR_DEPTH} levels"
            )));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn or_expr(&mut self) -> Result<f64, EvalError> {
        let mut v = self.and_expr()?;
        while self.eat_op(&["||"]).is_some() {
            let rhs = self.and_expr()?;
            v = f64::from(u8::from(v != 0.0 || rhs != 0.0));
        }
        Ok(v)
    }

    fn and_expr(&mut self) -> Result<f64, EvalError> {
        let mut v = self.cmp_expr()?;
        while self.eat_op(&["&&"]).is_some() {
            let rhs = self.cmp_expr()?;
            v = f64::from(u8::from(v != 0.0 && rhs != 0.0));
        }
        Ok(v)
    }

    fn approx_eq(&self, a: f64, b: f64) -> bool {
        (a - b).abs() <= self.eq_tolerance * a.abs().max(b.abs()).max(1.0)
    }

    fn cmp_expr(&mut self) -> Result<f64, EvalError> {
        let lhs = self.sum_expr()?;
        let Some(op) = self.eat_op(&["==", "!=", "<=", ">=", "<", ">"]) else {
            return Ok(lhs);
        };
        let rhs = self.sum_expr()?;
        let truth = match op {
            "==" => self.approx_eq(lhs, rhs),
            "!=" => !self.approx_eq(lhs, rhs),
            "<=" => lhs <= rhs,
            ">=" => lhs >= rhs,
            "<" => lhs < rhs,
            ">" => lhs > rhs,
            _ => unreachable!("eat_op filters"),
        };
        Ok(f64::from(u8::from(truth)))
    }

    fn sum_expr(&mut self) -> Result<f64, EvalError> {
        let mut v = self.term_expr()?;
        while let Some(op) = self.eat_op(&["+", "-"]) {
            let rhs = self.term_expr()?;
            v = if op == "+" { v + rhs } else { v - rhs };
        }
        Ok(v)
    }

    fn term_expr(&mut self) -> Result<f64, EvalError> {
        let mut v = self.unary_expr()?;
        while let Some(op) = self.eat_op(&["*", "/", "%"]) {
            let rhs = self.unary_expr()?;
            v = match op {
                "*" => v * rhs,
                "/" => v / rhs,
                _ => v % rhs,
            };
        }
        Ok(v)
    }

    fn unary_expr(&mut self) -> Result<f64, EvalError> {
        if self.eat_op(&["-"]).is_some() {
            return Ok(-self.nested(Self::unary_expr)?);
        }
        self.atom()
    }

    fn atom(&mut self) -> Result<f64, EvalError> {
        match self.peek().cloned() {
            Some(Token::Num(n)) => {
                self.pos += 1;
                Ok(n)
            }
            Some(Token::LParen) => {
                self.pos += 1;
                let v = self.nested(Self::or_expr)?;
                match self.peek() {
                    Some(Token::RParen) => {
                        self.pos += 1;
                        Ok(v)
                    }
                    _ => Err(EvalError::Syntax("expected `)`".to_string())),
                }
            }
            Some(Token::Ident(name)) => {
                self.pos += 1;
                if self.peek() == Some(&Token::LParen) {
                    self.pos += 1;
                    let mut args = Vec::new();
                    if self.peek() != Some(&Token::RParen) {
                        loop {
                            args.push(self.nested(Self::or_expr)?);
                            match self.peek() {
                                Some(Token::Comma) => self.pos += 1,
                                _ => break,
                            }
                        }
                    }
                    match self.peek() {
                        Some(Token::RParen) => self.pos += 1,
                        _ => return Err(EvalError::Syntax("expected `)` after arguments".into())),
                    }
                    return self.funcs.call(&name, &args);
                }
                self.metrics
                    .get(&name)
                    .copied()
                    .ok_or(EvalError::MissingMetric(name))
            }
            other => Err(EvalError::Syntax(format!(
                "expected a value, found {}",
                other.map_or("end of expression".to_string(), |t| format!("`{t}`"))
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(pairs: &[(&str, f64)]) -> BTreeMap<String, f64> {
        pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
    }

    fn eval(expr: &str, m: &BTreeMap<String, f64>) -> Result<f64, EvalError> {
        eval_expr(expr, m, &FunctionRegistry::default(), 1e-9)
    }

    #[test]
    fn arithmetic_and_precedence() {
        let m = metrics(&[]);
        assert_eq!(eval("1 + 2 * 3", &m).unwrap(), 7.0);
        assert_eq!(eval("(1 + 2) * 3", &m).unwrap(), 9.0);
        assert_eq!(eval("7 % 2", &m).unwrap(), 1.0);
        assert_eq!(eval("-2 + 5", &m).unwrap(), 3.0);
        assert_eq!(eval("1e3 / 4", &m).unwrap(), 250.0);
    }

    #[test]
    fn comparisons_and_logic() {
        let m = metrics(&[("a.b", 4.0), ("c", 0.87)]);
        assert_eq!(eval("a.b >= 4", &m).unwrap(), 1.0);
        assert_eq!(eval("c >= 1.5", &m).unwrap(), 0.0);
        assert_eq!(eval("a.b == 4 && c < 1", &m).unwrap(), 1.0);
        assert_eq!(eval("a.b < 4 || c < 1", &m).unwrap(), 1.0);
        assert_eq!(eval("a.b != 4", &m).unwrap(), 0.0);
    }

    #[test]
    fn equality_uses_tolerance() {
        let m = metrics(&[("x", 0.1 + 0.2)]);
        assert_eq!(eval("x == 0.3", &m).unwrap(), 1.0, "1e-9 relative slack");
        assert_eq!(
            eval_expr("1000000 == 1000001", &m, &FunctionRegistry::default(), 1e-9).unwrap(),
            0.0,
            "integers a count apart stay distinct"
        );
    }

    #[test]
    fn functions_resolve_and_check_arity() {
        let m = metrics(&[("d", 5.0)]);
        let mut funcs = FunctionRegistry::default();
        funcs.register("quota_flow_solves", 1, |a| {
            // Stand-in: number of odd levels of the recursion on ⌈a⌉ rounds.
            let mut r = a[0].round() as u64;
            let mut n = 0.0;
            while r > 0 {
                if r % 2 == 1 {
                    n += 1.0;
                }
                r /= 2;
            }
            n
        });
        assert_eq!(
            eval_expr("quota_flow_solves(d)", &m, &funcs, 1e-9).unwrap(),
            2.0
        );
        assert_eq!(eval("max(2, 3) + min(1, 0)", &m).unwrap(), 3.0);
        assert!(matches!(eval("max(1)", &m), Err(EvalError::Arity { .. })));
        assert!(matches!(
            eval("nope(1)", &m),
            Err(EvalError::UnknownFunction(_))
        ));
    }

    #[test]
    fn missing_metric_is_distinguished() {
        let m = metrics(&[]);
        assert_eq!(
            eval("ghost > 1", &m),
            Err(EvalError::MissingMetric("ghost".to_string()))
        );
    }

    #[test]
    fn syntax_errors_are_reported() {
        let m = metrics(&[]);
        for bad in ["1 +", "(1", "1 ? 2", "", "foo(1,", "1 2"] {
            assert!(matches!(eval(bad, &m), Err(EvalError::Syntax(_))), "{bad}");
        }
    }

    const RULES: &str = r#"
# perf gate
default_tolerance = 1e-6

[[rule]]
name = "speedup floor"           # only meaningful with real cores
when = "hardware_threads >= 4"
expr = "intra_parallel.thread_speedup_4 >= 1.5"

[[rule]]
expr = "observability.flow_solves == observability.reps * 2"

[[rule]]
name = "overhead ceiling"
expr = "observability.enabled_overhead_pct <= 50"
tolerance = 0.5
"#;

    #[test]
    fn deep_nesting_fails_the_rule_instead_of_the_stack() {
        // Past the cap, nesting of any shape is a syntax error of the
        // rule, however deep: the parser must not recurse once per level.
        let m = metrics(&[("x", 1.0)]);
        let parens = format!("{}x{}", "(".repeat(20_000), ")".repeat(20_000));
        let minuses = format!("{}x", "-".repeat(100_000));
        let calls = format!("{}x{}", "max(".repeat(20_000), ", 1)".repeat(20_000));
        for expr in [parens, minuses, calls] {
            let file = RuleFile {
                rules: vec![Rule {
                    name: "deep".to_string(),
                    expr,
                    ..Rule::default()
                }],
                default_tolerance: 1e-9,
            };
            let report = evaluate(&file, &m, &FunctionRegistry::default());
            assert!(report.failed());
            let outcome = &report.outcomes[0];
            assert_eq!(outcome.name, "deep");
            match &outcome.status {
                RuleStatus::Fail(msg) => {
                    assert!(msg.ends_with("nests deeper than 512 levels"), "{msg}");
                }
                other => panic!("expected a failure, got {other:?}"),
            }
        }
        // Nesting up to the cap still evaluates.
        let at_cap = format!("{}x{}", "(".repeat(512), ")".repeat(512));
        assert_eq!(eval(&at_cap, &m), Ok(1.0));
        assert_eq!(eval(&format!("{}x", "-".repeat(512)), &m), Ok(1.0));
        assert!(eval(&format!("{}x", "-".repeat(513)), &m).is_err());
    }

    #[test]
    fn rule_file_parses() {
        let f = parse_rules(RULES).unwrap();
        assert_eq!(f.rules.len(), 3);
        assert_eq!(f.default_tolerance, 1e-6);
        assert_eq!(f.rules[0].when.as_deref(), Some("hardware_threads >= 4"));
        assert_eq!(f.rules[1].name, "");
        assert_eq!(f.rules[2].tolerance, Some(0.5));
        assert!(parse_rules("[[rule]]\n").unwrap_err().contains("no `expr`"));
        assert!(parse_rules("[section]\n")
            .unwrap_err()
            .contains("unsupported"));
        assert!(parse_rules("[[rule]]\nexprr = \"1\"\n")
            .unwrap_err()
            .contains("unknown rule key"));
    }

    #[test]
    fn gate_passes_fails_and_skips() {
        let f = parse_rules(RULES).unwrap();
        let funcs = FunctionRegistry::default();
        // 4+ threads, good numbers: all pass.
        let good = metrics(&[
            ("hardware_threads", 8.0),
            ("intra_parallel.thread_speedup_4", 2.1),
            ("observability.flow_solves", 10.0),
            ("observability.reps", 5.0),
            ("observability.enabled_overhead_pct", 3.0),
        ]);
        let report = evaluate(&f, &good, &funcs);
        assert!(!report.failed(), "{}", report.render());
        assert_eq!(report.counts(), (3, 0, 0));

        // Regressed speedup: rule 1 fails with numbers in the message.
        let mut regressed = good.clone();
        regressed.insert("intra_parallel.thread_speedup_4".into(), 0.87);
        let report = evaluate(&f, &regressed, &funcs);
        assert!(report.failed());
        let fail = &report.outcomes[0];
        assert!(matches!(&fail.status, RuleStatus::Fail(m) if m.contains("0.87")));

        // 2-core host with a null (absent) speedup: rule 1 skips, rest pass.
        let mut low_core = good.clone();
        low_core.insert("hardware_threads".into(), 2.0);
        low_core.remove("intra_parallel.thread_speedup_4");
        let report = evaluate(&f, &low_core, &funcs);
        assert!(!report.failed(), "{}", report.render());
        assert_eq!(report.counts(), (2, 0, 1));

        // Guard true but gated metric missing: hard failure.
        let mut missing = good.clone();
        missing.remove("intra_parallel.thread_speedup_4");
        let report = evaluate(&f, &missing, &funcs);
        assert!(report.failed());
        assert!(report.render().contains("not found"));
    }

    #[test]
    fn render_explained_shows_resolved_sides() {
        let f = parse_rules(RULES).unwrap();
        let funcs = FunctionRegistry::default();
        let m = metrics(&[
            ("hardware_threads", 8.0),
            ("intra_parallel.thread_speedup_4", 0.9),
            ("observability.flow_solves", 10.0),
            ("observability.reps", 5.0),
            ("observability.enabled_overhead_pct", 3.0),
        ]);
        let report = evaluate(&f, &m, &funcs);
        let text = report.render_explained();
        assert!(
            text.contains("left `intra_parallel.thread_speedup_4` = 0.9, right `1.5` = 1.5"),
            "failing rule explained:\n{text}"
        );
        assert!(
            text.contains("left `observability.enabled_overhead_pct` = 3, right `50` = 50"),
            "passing rules explained too:\n{text}"
        );
        // The skipped rule (none here) and the summary still render.
        assert!(text.contains("gate: 2 passed, 1 failed, 0 skipped"));
        // Plain render stays unchanged: no detail lines.
        assert!(!report.render().contains("left `"));

        // Skipped rules carry no detail.
        let low = metrics(&[("hardware_threads", 2.0)]);
        let report = evaluate(&f, &low, &funcs);
        assert_eq!(report.outcomes[0].detail, None);

        // Non-comparison expressions fall back to the whole value.
        let f = parse_rules("[[rule]]\nexpr = \"1 && 1\"\n").unwrap();
        let report = evaluate(&f, &metrics(&[]), &funcs);
        assert!(report.render_explained().contains("`1 && 1` = 1"));
    }

    #[test]
    fn when_guard_skips_on_missing_guard_metric() {
        let f = parse_rules("[[rule]]\nwhen = \"ghost_field >= 1\"\nexpr = \"1 == 1\"\n").unwrap();
        let report = evaluate(&f, &metrics(&[]), &FunctionRegistry::default());
        assert!(!report.failed());
        assert!(matches!(
            &report.outcomes[0].status,
            RuleStatus::Skipped(m) if m.contains("ghost_field")
        ));
    }

    #[test]
    fn strip_comment_respects_strings() {
        assert_eq!(strip_comment("a = 1 # note"), "a = 1 ");
        assert_eq!(strip_comment("a = \"x # y\""), "a = \"x # y\"");
    }
}
