//! An XSLT 1.0 subset engine — the baseline transformation technology the
//! paper compares message morphing against (§5, Fig. 10).
//!
//! Supported instructions: `xsl:template` (with `match`), `xsl:value-of`,
//! `xsl:for-each`, `xsl:if`, `xsl:choose`/`xsl:when`/`xsl:otherwise`,
//! `xsl:apply-templates`, `xsl:text`, literal result elements, and attribute
//! value templates (`{expr}`). Supported XPath: relative/absolute child
//! paths, `.`, `text()`, `@attr`, predicates, `count()`, `not()`,
//! comparisons, `and`/`or`, number and string literals.

use std::fmt;

use crate::dom::{Element, XmlNode};
use crate::error::{Result, XmlError};

// -- XPath subset ---------------------------------------------------------------

/// One step of a location path.
#[derive(Debug, Clone, PartialEq)]
enum Step {
    /// Child elements with this name.
    Child(String),
    /// The context node itself (`.`).
    Current,
    /// Text children (`text()`).
    Text,
    /// An attribute of the context node (`@name`).
    Attr(String),
}

/// A location path with optional per-step predicates.
#[derive(Debug, Clone, PartialEq)]
pub struct Path {
    absolute: bool,
    steps: Vec<(Step, Option<Box<Expr>>)>,
}

/// An XPath expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A location path.
    Path(Path),
    /// A numeric literal.
    Number(f64),
    /// A string literal.
    Literal(String),
    /// Comparison.
    Cmp(Cmp, Box<Expr>, Box<Expr>),
    /// Logical and.
    And(Box<Expr>, Box<Expr>),
    /// Logical or.
    Or(Box<Expr>, Box<Expr>),
    /// `not(expr)`.
    Not(Box<Expr>),
    /// `count(path)`.
    Count(Path),
    /// `position()` — 1-based index of the context node in its node list.
    Position,
    /// `last()` — size of the context node list.
    Last,
}

/// Comparison operators.
#[allow(missing_docs)] // variant names mirror their operators
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl fmt::Display for Cmp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Cmp::Eq => "=",
            Cmp::Ne => "!=",
            Cmp::Lt => "<",
            Cmp::Le => "<=",
            Cmp::Gt => ">",
            Cmp::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

struct ExprParser<'a> {
    src: &'a [u8],
    pos: usize,
}

impl<'a> ExprParser<'a> {
    fn err<T>(&self, msg: impl Into<String>) -> Result<T> {
        Err(XmlError::XPath(format!(
            "{} (at offset {} of `{}`)",
            msg.into(),
            self.pos,
            String::from_utf8_lossy(self.src)
        )))
    }

    fn skip_ws(&mut self) {
        while matches!(self.src.get(self.pos), Some(c) if c.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn eat(&mut self, s: &[u8]) -> bool {
        if self.src[self.pos..].starts_with(s) {
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    fn name(&mut self) -> Option<String> {
        let start = self.pos;
        while matches!(self.src.get(self.pos), Some(c) if c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b':'))
        {
            self.pos += 1;
        }
        if self.pos == start {
            None
        } else {
            Some(String::from_utf8_lossy(&self.src[start..self.pos]).into_owned())
        }
    }

    fn keyword(&mut self, kw: &[u8]) -> bool {
        // A keyword must not be followed by a name character.
        if self.src[self.pos..].starts_with(kw) {
            let after = self.src.get(self.pos + kw.len());
            if !matches!(after, Some(c) if c.is_ascii_alphanumeric() || *c == b'_' || *c == b'-') {
                self.pos += kw.len();
                return true;
            }
        }
        false
    }

    fn expr(&mut self) -> Result<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let mut e = self.and_expr()?;
        loop {
            self.skip_ws();
            if self.keyword(b"or") {
                let r = self.and_expr()?;
                e = Expr::Or(Box::new(e), Box::new(r));
            } else {
                return Ok(e);
            }
        }
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut e = self.cmp_expr()?;
        loop {
            self.skip_ws();
            if self.keyword(b"and") {
                let r = self.cmp_expr()?;
                e = Expr::And(Box::new(e), Box::new(r));
            } else {
                return Ok(e);
            }
        }
    }

    fn cmp_expr(&mut self) -> Result<Expr> {
        let l = self.primary()?;
        self.skip_ws();
        let op = if self.eat(b"!=") {
            Cmp::Ne
        } else if self.eat(b"<=") {
            Cmp::Le
        } else if self.eat(b">=") {
            Cmp::Ge
        } else if self.eat(b"=") {
            Cmp::Eq
        } else if self.eat(b"<") {
            Cmp::Lt
        } else if self.eat(b">") {
            Cmp::Gt
        } else {
            return Ok(l);
        };
        let r = self.primary()?;
        Ok(Expr::Cmp(op, Box::new(l), Box::new(r)))
    }

    fn primary(&mut self) -> Result<Expr> {
        self.skip_ws();
        match self.peek() {
            Some(b'\'') => {
                self.pos += 1;
                let start = self.pos;
                while matches!(self.peek(), Some(c) if c != b'\'') {
                    self.pos += 1;
                }
                if self.peek() != Some(b'\'') {
                    return self.err("unterminated string literal");
                }
                let s = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
                self.pos += 1;
                Ok(Expr::Literal(s))
            }
            Some(c) if c.is_ascii_digit() => {
                let start = self.pos;
                while matches!(self.peek(), Some(c) if c.is_ascii_digit() || c == b'.') {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.src[start..self.pos]).expect("ascii");
                text.parse::<f64>()
                    .map(Expr::Number)
                    .map_err(|_| XmlError::XPath(format!("bad number `{text}`")))
            }
            Some(b'(') => {
                self.pos += 1;
                let e = self.expr()?;
                self.skip_ws();
                if !self.eat(b")") {
                    return self.err("expected `)`");
                }
                Ok(e)
            }
            _ => {
                if self.keyword(b"not") {
                    self.skip_ws();
                    if !self.eat(b"(") {
                        return self.err("expected `(` after not");
                    }
                    let e = self.expr()?;
                    self.skip_ws();
                    if !self.eat(b")") {
                        return self.err("expected `)`");
                    }
                    return Ok(Expr::Not(Box::new(e)));
                }
                if self.keyword(b"position()") {
                    return Ok(Expr::Position);
                }
                if self.keyword(b"last()") {
                    return Ok(Expr::Last);
                }
                if self.keyword(b"count") {
                    self.skip_ws();
                    if !self.eat(b"(") {
                        return self.err("expected `(` after count");
                    }
                    let p = self.path()?;
                    self.skip_ws();
                    if !self.eat(b")") {
                        return self.err("expected `)`");
                    }
                    return Ok(Expr::Count(p));
                }
                Ok(Expr::Path(self.path()?))
            }
        }
    }

    fn path(&mut self) -> Result<Path> {
        self.skip_ws();
        let absolute = self.eat(b"/");
        let mut steps = Vec::new();
        loop {
            self.skip_ws();
            let step = if self.eat(b"@") {
                let name =
                    self.name().ok_or_else(|| XmlError::XPath("expected attribute name".into()))?;
                Step::Attr(name)
            } else if self.keyword(b"text()") {
                Step::Text
            } else if self.eat(b".") {
                Step::Current
            } else if let Some(save) = self.try_name_step() {
                save
            } else if steps.is_empty() && absolute {
                // Bare "/" — the root itself.
                break;
            } else {
                return self.err("expected a path step");
            };
            let predicate = if self.eat(b"[") {
                let e = self.expr()?;
                self.skip_ws();
                if !self.eat(b"]") {
                    return self.err("expected `]`");
                }
                Some(Box::new(e))
            } else {
                None
            };
            steps.push((step, predicate));
            if !self.eat(b"/") {
                break;
            }
        }
        Ok(Path { absolute, steps })
    }

    fn try_name_step(&mut self) -> Option<Step> {
        let save = self.pos;
        match self.name() {
            Some(n) => Some(Step::Child(n)),
            None => {
                self.pos = save;
                None
            }
        }
    }
}

/// Parses an XPath-subset expression.
///
/// # Errors
///
/// Returns [`XmlError::XPath`] for unsupported or malformed syntax.
pub fn parse_expr(text: &str) -> Result<Expr> {
    let mut p = ExprParser { src: text.as_bytes(), pos: 0 };
    let e = p.expr()?;
    p.skip_ws();
    if p.pos != p.src.len() {
        return p.err("trailing characters in expression");
    }
    Ok(e)
}

/// Parses an XPath-subset location path.
///
/// # Errors
///
/// Returns [`XmlError::XPath`] for unsupported or malformed syntax.
pub fn parse_path(text: &str) -> Result<Path> {
    let mut p = ExprParser { src: text.as_bytes(), pos: 0 };
    let path = p.path()?;
    p.skip_ws();
    if p.pos != p.src.len() {
        return p.err("trailing characters in path");
    }
    Ok(path)
}

// -- evaluation -------------------------------------------------------------------

/// An XPath value.
#[derive(Debug, Clone)]
enum XVal<'a> {
    Nodes(Vec<&'a Element>),
    Num(f64),
    Str(String),
    Bool(bool),
}

impl<'a> XVal<'a> {
    fn to_num(&self) -> f64 {
        match self {
            XVal::Num(n) => *n,
            XVal::Str(s) => s.trim().parse().unwrap_or(f64::NAN),
            XVal::Bool(b) => {
                if *b {
                    1.0
                } else {
                    0.0
                }
            }
            XVal::Nodes(ns) => match ns.first() {
                Some(e) => e.string_value().trim().parse().unwrap_or(f64::NAN),
                None => f64::NAN,
            },
        }
    }

    fn into_string(self) -> String {
        match self {
            XVal::Str(s) => s,
            XVal::Num(n) => format_num(n),
            XVal::Bool(b) => b.to_string(),
            XVal::Nodes(ns) => ns.first().map(|e| e.string_value()).unwrap_or_default(),
        }
    }

    fn truthy(&self) -> bool {
        match self {
            XVal::Bool(b) => *b,
            XVal::Num(n) => *n != 0.0 && !n.is_nan(),
            XVal::Str(s) => !s.is_empty(),
            XVal::Nodes(ns) => !ns.is_empty(),
        }
    }
}

fn format_num(n: f64) -> String {
    if n.fract() == 0.0 && n.abs() < 1e15 {
        format!("{}", n as i64)
    } else {
        n.to_string()
    }
}

/// The dynamic evaluation context: current node, document root, and the
/// node's 1-based position within (and size of) the current node list —
/// what `position()` and `last()` observe.
#[derive(Clone, Copy)]
struct Ctx<'a> {
    node: &'a Element,
    root: &'a Element,
    pos: usize,
    size: usize,
}

impl<'a> Ctx<'a> {
    fn top(node: &'a Element, root: &'a Element) -> Ctx<'a> {
        Ctx { node, root, pos: 1, size: 1 }
    }

    fn at(self, node: &'a Element, pos: usize, size: usize) -> Ctx<'a> {
        Ctx { node, root: self.root, pos, size }
    }
}

/// Selects the node-set of `path` from the context (absolute paths address
/// the document root).
fn select<'a>(path: &Path, ctx: Ctx<'a>) -> Result<Vec<&'a Element>> {
    let current: Vec<&'a Element> = if path.absolute {
        // Absolute paths address the document: the first Child step must
        // match the document element itself.
        if path.steps.is_empty() {
            return Ok(vec![ctx.root]);
        }
        match &path.steps[0].0 {
            Step::Child(name) if name == &ctx.root.name => {
                let filtered = apply_predicate(vec![ctx.root], &path.steps[0].1, ctx)?;
                return apply_steps(&path.steps[1..], filtered, ctx);
            }
            _ => return Ok(Vec::new()),
        }
    } else {
        vec![ctx.node]
    };
    apply_steps(&path.steps, current, ctx)
}

fn apply_steps<'a>(
    steps: &[(Step, Option<Box<Expr>>)],
    mut current: Vec<&'a Element>,
    ctx: Ctx<'a>,
) -> Result<Vec<&'a Element>> {
    for (step, pred) in steps {
        let mut next: Vec<&'a Element> = Vec::new();
        match step {
            Step::Current => next = current.clone(),
            Step::Child(name) => {
                for n in &current {
                    next.extend(n.elements().filter(|e| &e.name == name));
                }
            }
            Step::Text | Step::Attr(_) => {
                // Terminal, value-producing steps: handled by eval(); as a
                // node-set they select nothing.
                current = Vec::new();
                continue;
            }
        }
        current = apply_predicate(next, pred, ctx)?;
    }
    Ok(current)
}

fn apply_predicate<'a>(
    nodes: Vec<&'a Element>,
    pred: &Option<Box<Expr>>,
    ctx: Ctx<'a>,
) -> Result<Vec<&'a Element>> {
    match pred {
        None => Ok(nodes),
        Some(p) => {
            let size = nodes.len();
            let mut out = Vec::with_capacity(size);
            for (i, n) in nodes.into_iter().enumerate() {
                let inner = ctx.at(n, i + 1, size);
                let v = eval(p, inner)?;
                // XPath 1.0: a numeric predicate is a position test.
                let keep = match &v {
                    XVal::Num(want) => *want == (i + 1) as f64,
                    other => other.truthy(),
                };
                if keep {
                    out.push(n);
                }
            }
            Ok(out)
        }
    }
}

/// Evaluates an expression in a context.
fn eval<'a>(expr: &Expr, ctx: Ctx<'a>) -> Result<XVal<'a>> {
    Ok(match expr {
        Expr::Number(n) => XVal::Num(*n),
        Expr::Literal(s) => XVal::Str(s.clone()),
        Expr::Position => XVal::Num(ctx.pos as f64),
        Expr::Last => XVal::Num(ctx.size as f64),
        Expr::Path(p) => {
            // Terminal @attr / text() steps produce strings.
            if let Some(((last, _), init)) = p.steps.split_last() {
                match last {
                    Step::Attr(name) => {
                        let prefix = Path { absolute: p.absolute, steps: init.to_vec() };
                        let nodes = select(&prefix, ctx)?;
                        return Ok(XVal::Str(
                            nodes
                                .first()
                                .and_then(|e| e.attribute(name))
                                .unwrap_or_default()
                                .to_string(),
                        ));
                    }
                    Step::Text => {
                        let prefix = Path { absolute: p.absolute, steps: init.to_vec() };
                        let nodes = select(&prefix, ctx)?;
                        return Ok(XVal::Str(
                            nodes.first().map(|e| e.string_value()).unwrap_or_default(),
                        ));
                    }
                    _ => {}
                }
            }
            XVal::Nodes(select(p, ctx)?)
        }
        Expr::Count(p) => XVal::Num(select(p, ctx)?.len() as f64),
        Expr::Not(e) => XVal::Bool(!eval(e, ctx)?.truthy()),
        Expr::And(l, r) => XVal::Bool(eval(l, ctx)?.truthy() && eval(r, ctx)?.truthy()),
        Expr::Or(l, r) => XVal::Bool(eval(l, ctx)?.truthy() || eval(r, ctx)?.truthy()),
        Expr::Cmp(op, l, r) => {
            let lv = eval(l, ctx)?;
            let rv = eval(r, ctx)?;
            // Numeric comparison when both sides look numeric; otherwise
            // string comparison (first-node semantics for node-sets).
            let ln = lv.to_num();
            let rn = rv.to_num();
            let result = if !ln.is_nan() && !rn.is_nan() {
                cmp_ord(*op, ln.partial_cmp(&rn))
            } else {
                let ls = lv.into_string();
                let rs = rv.into_string();
                cmp_ord(*op, ls.partial_cmp(&rs))
            };
            XVal::Bool(result)
        }
    })
}

fn cmp_ord(op: Cmp, ord: Option<std::cmp::Ordering>) -> bool {
    use std::cmp::Ordering::*;
    // `None` (NaN involved) compares false under every operator.
    ord.is_some_and(|ord| match op {
        Cmp::Eq => ord == Equal,
        Cmp::Ne => ord != Equal,
        Cmp::Lt => ord == Less,
        Cmp::Le => ord != Greater,
        Cmp::Gt => ord == Greater,
        Cmp::Ge => ord != Less,
    })
}

// -- stylesheet ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Instr {
    Literal { name: String, attrs: Vec<(String, AttrTemplate)>, body: Vec<Instr> },
    Text(String),
    ValueOf(Expr),
    ForEach { select: Path, body: Vec<Instr> },
    If { test: Expr, body: Vec<Instr> },
    Choose { whens: Vec<(Expr, Vec<Instr>)>, otherwise: Vec<Instr> },
    ApplyTemplates { select: Option<Path> },
    CopyOf { select: Path },
}

/// An attribute value template: literal chunks interleaved with `{expr}`.
#[derive(Debug, Clone)]
struct AttrTemplate {
    parts: Vec<AttrPart>,
}

#[derive(Debug, Clone)]
enum AttrPart {
    Lit(String),
    Expr(Expr),
}

fn parse_attr_template(text: &str) -> Result<AttrTemplate> {
    let mut parts = Vec::new();
    let mut lit = String::new();
    let mut chars = text.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '{' if chars.peek() == Some(&'{') => {
                chars.next();
                lit.push('{');
            }
            '}' if chars.peek() == Some(&'}') => {
                chars.next();
                lit.push('}');
            }
            '{' => {
                if !lit.is_empty() {
                    parts.push(AttrPart::Lit(std::mem::take(&mut lit)));
                }
                let mut inner = String::new();
                for c in chars.by_ref() {
                    if c == '}' {
                        break;
                    }
                    inner.push(c);
                }
                parts.push(AttrPart::Expr(parse_expr(&inner)?));
            }
            c => lit.push(c),
        }
    }
    if !lit.is_empty() {
        parts.push(AttrPart::Lit(lit));
    }
    Ok(AttrTemplate { parts })
}

#[derive(Debug, Clone)]
struct Template {
    pattern: String,
    body: Vec<Instr>,
}

/// A compiled XSLT stylesheet.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), xmlt::XmlError> {
/// use xmlt::{parse, Stylesheet};
///
/// let ss = Stylesheet::parse(r#"
///   <xsl:stylesheet>
///     <xsl:template match="/order">
///       <total><xsl:value-of select="count(item)"/></total>
///     </xsl:template>
///   </xsl:stylesheet>"#)?;
/// let doc = parse("<order><item/><item/></order>")?;
/// let out = ss.transform(&doc)?;
/// assert_eq!(out.string_value(), "2");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Stylesheet {
    templates: Vec<Template>,
}

fn xsl_name(el: &Element) -> Option<&str> {
    el.name.strip_prefix("xsl:")
}

fn parse_body(el: &Element) -> Result<Vec<Instr>> {
    let mut out = Vec::new();
    for child in &el.children {
        match child {
            XmlNode::Text(t) => {
                if !t.trim().is_empty() {
                    out.push(Instr::Text(t.clone()));
                }
            }
            XmlNode::Element(e) => out.push(parse_instr(e)?),
        }
    }
    Ok(out)
}

fn required_attr<'e>(el: &'e Element, name: &str) -> Result<&'e str> {
    el.attribute(name)
        .ok_or_else(|| XmlError::Stylesheet(format!("<{}> requires a `{name}` attribute", el.name)))
}

fn parse_instr(el: &Element) -> Result<Instr> {
    match xsl_name(el) {
        Some("value-of") => Ok(Instr::ValueOf(parse_expr(required_attr(el, "select")?)?)),
        Some("for-each") => Ok(Instr::ForEach {
            select: parse_path(required_attr(el, "select")?)?,
            body: parse_body(el)?,
        }),
        Some("if") => {
            Ok(Instr::If { test: parse_expr(required_attr(el, "test")?)?, body: parse_body(el)? })
        }
        Some("choose") => {
            let mut whens = Vec::new();
            let mut otherwise = Vec::new();
            for c in el.elements() {
                match xsl_name(c) {
                    Some("when") => {
                        whens.push((parse_expr(required_attr(c, "test")?)?, parse_body(c)?));
                    }
                    Some("otherwise") => otherwise = parse_body(c)?,
                    _ => {
                        return Err(XmlError::Stylesheet(
                            "only xsl:when / xsl:otherwise may appear in xsl:choose".into(),
                        ))
                    }
                }
            }
            Ok(Instr::Choose { whens, otherwise })
        }
        Some("apply-templates") => Ok(Instr::ApplyTemplates {
            select: el.attribute("select").map(parse_path).transpose()?,
        }),
        Some("copy-of") => Ok(Instr::CopyOf { select: parse_path(required_attr(el, "select")?)? }),
        Some("text") => Ok(Instr::Text(el.string_value())),
        Some(other) => Err(XmlError::Stylesheet(format!("unsupported instruction <xsl:{other}>"))),
        None => {
            let mut attrs = Vec::new();
            for (k, v) in &el.attrs {
                attrs.push((k.clone(), parse_attr_template(v)?));
            }
            Ok(Instr::Literal { name: el.name.clone(), attrs, body: parse_body(el)? })
        }
    }
}

impl Stylesheet {
    /// Parses a stylesheet from XML text.
    ///
    /// # Errors
    ///
    /// Returns XML parse errors, [`XmlError::Stylesheet`] for unsupported
    /// constructs, and [`XmlError::XPath`] for bad expressions.
    pub fn parse(text: &str) -> Result<Stylesheet> {
        let root = crate::parse::parse(text)?;
        Stylesheet::from_element(&root)
    }

    /// Builds a stylesheet from an already-parsed `<xsl:stylesheet>` element.
    ///
    /// # Errors
    ///
    /// As [`Stylesheet::parse`].
    fn from_element(root: &Element) -> Result<Stylesheet> {
        if xsl_name(root) != Some("stylesheet") && xsl_name(root) != Some("transform") {
            return Err(XmlError::Stylesheet("root must be <xsl:stylesheet>".into()));
        }
        let mut templates = Vec::new();
        for child in root.elements() {
            match xsl_name(child) {
                Some("template") => {
                    templates.push(Template {
                        pattern: required_attr(child, "match")?.to_string(),
                        body: parse_body(child)?,
                    });
                }
                Some("output") => {} // ignored: we always emit compact XML
                _ => {
                    return Err(XmlError::Stylesheet(format!(
                        "unsupported top-level element <{}>",
                        child.name
                    )))
                }
            }
        }
        if templates.is_empty() {
            return Err(XmlError::Stylesheet("stylesheet has no templates".into()));
        }
        Ok(Stylesheet { templates })
    }

    fn find_template(&self, name: &str, is_root: bool) -> Option<&Template> {
        // Priority: exact "/name" or name match, then "/" (for root), then
        // "*".
        self.templates
            .iter()
            .find(|t| {
                t.pattern == name
                    || t.pattern.strip_prefix('/').is_some_and(|p| p == name && is_root)
            })
            .or_else(
                || {
                    if is_root {
                        self.templates.iter().find(|t| t.pattern == "/")
                    } else {
                        None
                    }
                },
            )
            .or_else(|| self.templates.iter().find(|t| t.pattern == "*"))
    }

    /// Applies the stylesheet to a document, producing the transformed
    /// document element.
    ///
    /// # Errors
    ///
    /// Returns [`XmlError::Stylesheet`] when the output is not a single
    /// element, plus any evaluation errors.
    pub fn transform(&self, root: &Element) -> Result<Element> {
        let mut out = Vec::new();
        self.apply_to(Ctx::top(root, root), true, &mut out)?;
        let mut elements: Vec<Element> = out
            .into_iter()
            .filter_map(|n| match n {
                XmlNode::Element(e) => Some(e),
                XmlNode::Text(t) if t.trim().is_empty() => None,
                XmlNode::Text(_) => None,
            })
            .collect();
        match elements.len() {
            1 => Ok(elements.pop().expect("len checked")),
            0 => Err(XmlError::Stylesheet("transformation produced no output element".into())),
            n => Err(XmlError::Stylesheet(format!(
                "transformation produced {n} top-level elements; expected 1"
            ))),
        }
    }

    fn apply_to(&self, ctx: Ctx<'_>, is_root: bool, out: &mut Vec<XmlNode>) -> Result<()> {
        match self.find_template(&ctx.node.name, is_root) {
            Some(t) => self.run_body(&t.body, ctx, out),
            None => {
                // Built-in rule: copy text, recurse into child elements.
                let elems: Vec<&Element> = ctx.node.elements().collect();
                let size = elems.len();
                let mut ei = 0;
                for c in &ctx.node.children {
                    match c {
                        XmlNode::Text(t) => out.push(XmlNode::Text(t.clone())),
                        XmlNode::Element(e) => {
                            ei += 1;
                            self.apply_to(ctx.at(e, ei, size), false, out)?;
                        }
                    }
                }
                Ok(())
            }
        }
    }

    fn run_body(&self, body: &[Instr], ctx: Ctx<'_>, out: &mut Vec<XmlNode>) -> Result<()> {
        for instr in body {
            match instr {
                Instr::Text(t) => out.push(XmlNode::Text(t.clone())),
                Instr::ValueOf(e) => {
                    out.push(XmlNode::Text(eval(e, ctx)?.into_string()));
                }
                Instr::Literal { name, attrs, body } => {
                    let mut el = Element::new(name.clone());
                    for (k, tpl) in attrs {
                        let mut v = String::new();
                        for part in &tpl.parts {
                            match part {
                                AttrPart::Lit(s) => v.push_str(s),
                                AttrPart::Expr(e) => v.push_str(&eval(e, ctx)?.into_string()),
                            }
                        }
                        el.attrs.push((k.clone(), v));
                    }
                    self.run_body(body, ctx, &mut el.children)?;
                    out.push(XmlNode::Element(el));
                }
                Instr::ForEach { select: sel, body } => {
                    let nodes = select(sel, ctx)?;
                    let size = nodes.len();
                    for (i, n) in nodes.into_iter().enumerate() {
                        self.run_body(body, ctx.at(n, i + 1, size), out)?;
                    }
                }
                Instr::If { test, body } => {
                    if eval(test, ctx)?.truthy() {
                        self.run_body(body, ctx, out)?;
                    }
                }
                Instr::Choose { whens, otherwise } => {
                    let mut done = false;
                    for (test, body) in whens {
                        if eval(test, ctx)?.truthy() {
                            self.run_body(body, ctx, out)?;
                            done = true;
                            break;
                        }
                    }
                    if !done {
                        self.run_body(otherwise, ctx, out)?;
                    }
                }
                Instr::ApplyTemplates { select: sel } => {
                    let nodes = match sel {
                        Some(p) => select(p, ctx)?,
                        None => ctx.node.elements().collect(),
                    };
                    let size = nodes.len();
                    for (i, n) in nodes.into_iter().enumerate() {
                        self.apply_to(ctx.at(n, i + 1, size), false, out)?;
                    }
                }
                Instr::CopyOf { select: sel } => {
                    for n in select(sel, ctx)? {
                        out.push(XmlNode::Element(n.clone()));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    fn doc() -> Element {
        parse(
            "<ChannelOpenResponse>\
               <member_count>3</member_count>\
               <member_list><info>alice</info><ID>1</ID><is_source>1</is_source><is_sink>0</is_sink></member_list>\
               <member_list><info>bob</info><ID>2</ID><is_source>0</is_source><is_sink>1</is_sink></member_list>\
               <member_list><info>carol</info><ID>3</ID><is_source>1</is_source><is_sink>1</is_sink></member_list>\
             </ChannelOpenResponse>",
        )
        .unwrap()
    }

    /// The v2.0 → v1.0 ChannelOpenResponse rollback expressed as XSLT — the
    /// stylesheet equivalent of the paper's Fig. 5 Ecode.
    pub(crate) const V2_TO_V1: &str = r#"
      <xsl:stylesheet>
        <xsl:template match="/ChannelOpenResponse">
          <ChannelOpenResponse>
            <member_count><xsl:value-of select="member_count"/></member_count>
            <xsl:for-each select="member_list">
              <member_list>
                <info><xsl:value-of select="info"/></info>
                <ID><xsl:value-of select="ID"/></ID>
              </member_list>
            </xsl:for-each>
            <src_count><xsl:value-of select="count(member_list[is_source=1])"/></src_count>
            <xsl:for-each select="member_list[is_source=1]">
              <src_list>
                <info><xsl:value-of select="info"/></info>
                <ID><xsl:value-of select="ID"/></ID>
              </src_list>
            </xsl:for-each>
            <sink_count><xsl:value-of select="count(member_list[is_sink=1])"/></sink_count>
            <xsl:for-each select="member_list[is_sink=1]">
              <sink_list>
                <info><xsl:value-of select="info"/></info>
                <ID><xsl:value-of select="ID"/></ID>
              </sink_list>
            </xsl:for-each>
          </ChannelOpenResponse>
        </xsl:template>
      </xsl:stylesheet>"#;

    #[test]
    fn paper_rollback_stylesheet_works() {
        let ss = Stylesheet::parse(V2_TO_V1).unwrap();
        let out = ss.transform(&doc()).unwrap();
        assert_eq!(out.first_named("member_count").unwrap().string_value(), "3");
        assert_eq!(out.first_named("src_count").unwrap().string_value(), "2");
        assert_eq!(out.first_named("sink_count").unwrap().string_value(), "2");
        let srcs: Vec<String> = out
            .elements_named("src_list")
            .map(|e| e.first_named("info").unwrap().string_value())
            .collect();
        assert_eq!(srcs, ["alice", "carol"]);
        let sinks: Vec<String> = out
            .elements_named("sink_list")
            .map(|e| e.first_named("info").unwrap().string_value())
            .collect();
        assert_eq!(sinks, ["bob", "carol"]);
    }

    #[test]
    fn value_of_and_literals() {
        let ss = Stylesheet::parse(
            r#"<xsl:stylesheet><xsl:template match="/a">
                 <r x="{b}"><xsl:value-of select="b"/>!</r>
               </xsl:template></xsl:stylesheet>"#,
        )
        .unwrap();
        let out = ss.transform(&parse("<a><b>7</b></a>").unwrap()).unwrap();
        assert_eq!(out.attribute("x"), Some("7"));
        assert_eq!(out.string_value(), "7!");
    }

    #[test]
    fn choose_when_otherwise() {
        let ss = Stylesheet::parse(
            r#"<xsl:stylesheet><xsl:template match="/a">
                 <r><xsl:choose>
                   <xsl:when test="n &gt; 5">big</xsl:when>
                   <xsl:when test="n &gt; 2">mid</xsl:when>
                   <xsl:otherwise>small</xsl:otherwise>
                 </xsl:choose></r>
               </xsl:template></xsl:stylesheet>"#,
        )
        .unwrap();
        let run = |n: i32| {
            ss.transform(&parse(&format!("<a><n>{n}</n></a>")).unwrap()).unwrap().string_value()
        };
        assert_eq!(run(9), "big");
        assert_eq!(run(4), "mid");
        assert_eq!(run(1), "small");
    }

    #[test]
    fn apply_templates_dispatches_by_name() {
        let ss = Stylesheet::parse(
            r#"<xsl:stylesheet>
                 <xsl:template match="/list"><out><xsl:apply-templates/></out></xsl:template>
                 <xsl:template match="a"><x/></xsl:template>
                 <xsl:template match="b"><y/></xsl:template>
               </xsl:stylesheet>"#,
        )
        .unwrap();
        let out = ss.transform(&parse("<list><a/><b/><a/></list>").unwrap()).unwrap();
        let names: Vec<&str> = out.elements().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["x", "y", "x"]);
    }

    #[test]
    fn attribute_access_and_text_function() {
        let ss = Stylesheet::parse(
            r#"<xsl:stylesheet><xsl:template match="/a">
                 <r><xsl:value-of select="@id"/>:<xsl:value-of select="b/text()"/></r>
               </xsl:template></xsl:stylesheet>"#,
        )
        .unwrap();
        let out = ss.transform(&parse(r#"<a id="42"><b>t</b></a>"#).unwrap()).unwrap();
        assert_eq!(out.string_value(), "42:t");
    }

    #[test]
    fn predicates_with_logic() {
        let ss = Stylesheet::parse(
            r#"<xsl:stylesheet><xsl:template match="/l">
                 <r><xsl:value-of select="count(i[v &gt;= 2 and v &lt; 9])"/></r>
               </xsl:template></xsl:stylesheet>"#,
        )
        .unwrap();
        let out = ss
            .transform(
                &parse("<l><i><v>1</v></i><i><v>2</v></i><i><v>5</v></i><i><v>9</v></i></l>")
                    .unwrap(),
            )
            .unwrap();
        assert_eq!(out.string_value(), "2");
    }

    #[test]
    fn string_comparison_and_not() {
        let ss = Stylesheet::parse(
            r#"<xsl:stylesheet><xsl:template match="/a">
                 <r><xsl:if test="name = 'bob'">B</xsl:if><xsl:if test="not(name = 'eve')">N</xsl:if></r>
               </xsl:template></xsl:stylesheet>"#,
        )
        .unwrap();
        let out = ss.transform(&parse("<a><name>bob</name></a>").unwrap()).unwrap();
        assert_eq!(out.string_value(), "BN");
    }

    #[test]
    fn builtin_rule_recurses_without_template() {
        let ss = Stylesheet::parse(
            r#"<xsl:stylesheet>
                 <xsl:template match="leaf"><hit/></xsl:template>
                 <xsl:template match="/root"><out><xsl:apply-templates/></out></xsl:template>
               </xsl:stylesheet>"#,
        )
        .unwrap();
        // `mid` has no template: built-in rule recurses into it.
        let out = ss.transform(&parse("<root><mid><leaf/></mid></root>").unwrap()).unwrap();
        assert_eq!(out.elements().count(), 1);
        assert_eq!(out.elements().next().unwrap().name, "hit");
    }

    #[test]
    fn errors_for_unsupported_constructs() {
        assert!(Stylesheet::parse("<notxsl/>").is_err());
        assert!(Stylesheet::parse("<xsl:stylesheet/>").is_err());
        assert!(Stylesheet::parse(
            r#"<xsl:stylesheet><xsl:template match="/"><xsl:value-of/></xsl:template></xsl:stylesheet>"#
        )
        .is_err());
        assert!(Stylesheet::parse(
            r#"<xsl:stylesheet><xsl:template match="/"><xsl:call-template name="x"/></xsl:template></xsl:stylesheet>"#
        )
        .is_err());
        assert!(parse_expr("1 +").is_err());
        assert!(parse_expr("count(").is_err());
        assert!(parse_path("a[b").is_err());
    }

    #[test]
    fn multiple_output_roots_rejected() {
        let ss = Stylesheet::parse(
            r#"<xsl:stylesheet><xsl:template match="/a"><x/><y/></xsl:template></xsl:stylesheet>"#,
        )
        .unwrap();
        assert!(ss.transform(&parse("<a/>").unwrap()).is_err());
    }
}
