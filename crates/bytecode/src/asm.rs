//! A textual assembler for hpmopt bytecode.
//!
//! Lets programs be written as plain text instead of builder calls —
//! handy for tests, REPL-style experimentation, and for keeping guest
//! programs in files. The syntax mirrors the disassembler's output with
//! label support:
//!
//! ```text
//! class Node { ref next; int v; }
//! static head: ref;
//!
//! method sum(1) returns locals=1 {
//!     const 0
//!     store 1
//! loop:
//!     load 0
//!     is_null
//!     jump_if done
//!     load 1
//!     load 0
//!     get_field Node.v
//!     add
//!     store 1
//!     load 0
//!     get_field Node.next
//!     store 0
//!     jump loop
//! done:
//!     load 1
//!     return_val
//! }
//!
//! method main(0) locals=0 {
//!     const_null
//!     call sum
//!     pop
//!     return
//! }
//! ```
//!
//! The method named `main` becomes the entry point. Comments run from
//! `#` or `//` to end of line.

use std::collections::HashMap;

use crate::builder::ProgramBuilder;
use crate::class::FieldType;
use crate::instr::{ElemKind, Instr};
use crate::method::MethodDef;
use crate::program::{MethodId, Program};
use crate::verify::VerifyError;

/// An assembly error with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based line number (0 for whole-program errors).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for AsmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for AsmError {}

impl From<VerifyError> for AsmError {
    fn from(e: VerifyError) -> Self {
        AsmError {
            line: 0,
            message: format!("verification failed: {e}"),
        }
    }
}

fn err(line: usize, message: impl Into<String>) -> AsmError {
    AsmError {
        line,
        message: message.into(),
    }
}

fn elem_kind(s: &str, line: usize) -> Result<ElemKind, AsmError> {
    match s {
        "i8" => Ok(ElemKind::I8),
        "i16" => Ok(ElemKind::I16),
        "i32" => Ok(ElemKind::I32),
        "i64" => Ok(ElemKind::I64),
        "ref" => Ok(ElemKind::Ref),
        other => Err(err(line, format!("unknown element kind {other:?}"))),
    }
}

struct PendingMethod {
    name: String,
    params: u16,
    locals: u16,
    returns: bool,
    /// (line, mnemonic, operand) triples.
    body: Vec<(usize, String, Option<String>)>,
    /// label name → instruction index.
    labels: HashMap<String, u32>,
    start_line: usize,
}

/// Assemble a program from source text.
///
/// # Errors
///
/// Returns an [`AsmError`] describing the first syntax, resolution, or
/// verification problem.
#[allow(clippy::too_many_lines)]
pub fn assemble(source: &str) -> Result<Program, AsmError> {
    let mut pb = ProgramBuilder::new();
    let mut statics: HashMap<String, crate::program::StaticId> = HashMap::new();
    let mut methods: Vec<PendingMethod> = Vec::new();
    let mut current: Option<PendingMethod> = None;

    for (idx, raw) in source.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw
            .split('#')
            .next()
            .unwrap_or("")
            .split("//")
            .next()
            .unwrap_or("")
            .trim();
        if line.is_empty() {
            continue;
        }

        if let Some(m) = &mut current {
            if line == "}" {
                methods.push(current.take().expect("inside a method"));
                continue;
            }
            if let Some(label) = line.strip_suffix(':') {
                let at = m.body.len() as u32;
                if m.labels.insert(label.to_string(), at).is_some() {
                    return Err(err(line_no, format!("duplicate label {label:?}")));
                }
                continue;
            }
            let mut parts = line.splitn(2, char::is_whitespace);
            let mnemonic = parts.next().expect("non-empty line").to_string();
            let operand = parts.next().map(|s| s.trim().to_string());
            m.body.push((line_no, mnemonic, operand));
            continue;
        }

        if let Some(rest) = line.strip_prefix("class ") {
            let (name, fields_src) = rest
                .split_once('{')
                .ok_or_else(|| err(line_no, "expected `{` after class name"))?;
            let name = name.trim();
            let fields_src = fields_src
                .strip_suffix('}')
                .ok_or_else(|| err(line_no, "class body must close with `}` on the same line"))?;
            let mut fields = Vec::new();
            for decl in fields_src.split(';') {
                let decl = decl.trim();
                if decl.is_empty() {
                    continue;
                }
                let (ty, fname) = decl
                    .split_once(' ')
                    .ok_or_else(|| err(line_no, format!("bad field declaration {decl:?}")))?;
                let ty = match ty.trim() {
                    "ref" => FieldType::Ref,
                    "int" => FieldType::Int,
                    other => return Err(err(line_no, format!("unknown field type {other:?}"))),
                };
                fields.push((fname.trim().to_string(), ty));
            }
            let refs: Vec<(&str, FieldType)> =
                fields.iter().map(|(n, t)| (n.as_str(), *t)).collect();
            pb.add_class(name, &refs);
            continue;
        }

        if let Some(rest) = line.strip_prefix("static ") {
            let rest = rest.trim_end_matches(';');
            let (name, ty) = rest
                .split_once(':')
                .ok_or_else(|| err(line_no, "expected `static name: type;`"))?;
            let ty = match ty.trim() {
                "ref" => FieldType::Ref,
                "int" => FieldType::Int,
                other => return Err(err(line_no, format!("unknown static type {other:?}"))),
            };
            let id = pb.add_static(name.trim(), ty);
            statics.insert(name.trim().to_string(), id);
            continue;
        }

        if let Some(rest) = line.strip_prefix("method ") {
            let header = rest
                .strip_suffix('{')
                .ok_or_else(|| err(line_no, "method header must end with `{`"))?
                .trim();
            let (name, after) = header
                .split_once('(')
                .ok_or_else(|| err(line_no, "expected `(` in method header"))?;
            let (params_src, tail) = after
                .split_once(')')
                .ok_or_else(|| err(line_no, "expected `)` in method header"))?;
            let params: u16 = params_src
                .trim()
                .parse()
                .map_err(|_| err(line_no, "parameter count must be a number"))?;
            let mut returns = false;
            let mut locals = 0u16;
            for tok in tail.split_whitespace() {
                if tok == "returns" {
                    returns = true;
                } else if let Some(n) = tok.strip_prefix("locals=") {
                    locals = n
                        .parse()
                        .map_err(|_| err(line_no, "locals= must be a number"))?;
                } else {
                    return Err(err(line_no, format!("unexpected token {tok:?}")));
                }
            }
            current = Some(PendingMethod {
                name: name.trim().to_string(),
                params,
                locals,
                returns,
                body: Vec::new(),
                labels: HashMap::new(),
                start_line: line_no,
            });
            continue;
        }

        return Err(err(line_no, format!("unexpected top-level line {line:?}")));
    }

    if let Some(m) = current {
        return Err(err(m.start_line, "unterminated method body"));
    }

    // Pass 1: declare every method so calls can resolve forward.
    let mut method_ids: HashMap<String, MethodId> = HashMap::new();
    for m in &methods {
        let id = pb.declare_method(&m.name, m.params, m.returns);
        method_ids.insert(m.name.clone(), id);
    }

    // Pass 2: encode bodies.
    for m in &methods {
        let instrs = encode_body(&pb, &statics, &method_ids, m)?;
        pb.define_method_raw(method_ids[&m.name], m.locals, instrs);
    }

    let main = *method_ids
        .get("main")
        .ok_or_else(|| err(0, "no `main` method"))?;
    pb.set_entry(main);
    Ok(pb.finish()?)
}

fn encode_body(
    pb: &ProgramBuilder,
    statics: &HashMap<String, crate::program::StaticId>,
    method_ids: &HashMap<String, MethodId>,
    m: &PendingMethod,
) -> Result<Vec<Instr>, AsmError> {
    let mut out = Vec::with_capacity(m.body.len());
    for (line, mnemonic, operand) in &m.body {
        let line = *line;
        let need = |what: &str| -> Result<&str, AsmError> {
            operand
                .as_deref()
                .ok_or_else(|| err(line, format!("{mnemonic} needs {what}")))
        };
        let int = |what: &str| -> Result<i64, AsmError> {
            need(what)?
                .parse::<i64>()
                .map_err(|_| err(line, format!("{mnemonic} needs a numeric {what}")))
        };
        let label = |what: &str| -> Result<u32, AsmError> {
            let name = need(what)?;
            m.labels
                .get(name)
                .copied()
                .ok_or_else(|| err(line, format!("unknown label {name:?}")))
        };
        let field = |what: &str| -> Result<crate::program::FieldId, AsmError> {
            let spec = need(what)?;
            let (class, fname) = spec
                .split_once('.')
                .ok_or_else(|| err(line, format!("{mnemonic} needs Class.field")))?;
            let class_id = pb
                .class_id(class)
                .ok_or_else(|| err(line, format!("unknown class {class:?}")))?;
            pb.field_id(class_id, fname)
                .ok_or_else(|| err(line, format!("unknown field {spec:?}")))
        };

        let i = match mnemonic.as_str() {
            "const" => Instr::Const(int("a constant")?),
            "const_null" => Instr::ConstNull,
            "load" => Instr::Load(int("a local index")? as u16),
            "store" => Instr::Store(int("a local index")? as u16),
            "dup" => Instr::Dup,
            "pop" => Instr::Pop,
            "swap" => Instr::Swap,
            "add" => Instr::Add,
            "sub" => Instr::Sub,
            "mul" => Instr::Mul,
            "div" => Instr::Div,
            "rem" => Instr::Rem,
            "and" => Instr::And,
            "or" => Instr::Or,
            "xor" => Instr::Xor,
            "shl" => Instr::Shl,
            "shr" => Instr::Shr,
            "ushr" => Instr::UShr,
            "neg" => Instr::Neg,
            "eq" => Instr::Eq,
            "ne" => Instr::Ne,
            "lt" => Instr::Lt,
            "le" => Instr::Le,
            "gt" => Instr::Gt,
            "ge" => Instr::Ge,
            "jump" => Instr::Jump(label("a label")?),
            "jump_if" => Instr::JumpIf(label("a label")?),
            "jump_if_not" => Instr::JumpIfNot(label("a label")?),
            "new" => {
                let name = need("a class name")?;
                Instr::New(
                    pb.class_id(name)
                        .ok_or_else(|| err(line, format!("unknown class {name:?}")))?,
                )
            }
            "new_array" => Instr::NewArray(elem_kind(need("an element kind")?, line)?),
            "get_field" => Instr::GetField(field("a field")?),
            "put_field" => Instr::PutField(field("a field")?),
            "get_static" => {
                let name = need("a static name")?;
                Instr::GetStatic(
                    *statics
                        .get(name)
                        .ok_or_else(|| err(line, format!("unknown static {name:?}")))?,
                )
            }
            "put_static" => {
                let name = need("a static name")?;
                Instr::PutStatic(
                    *statics
                        .get(name)
                        .ok_or_else(|| err(line, format!("unknown static {name:?}")))?,
                )
            }
            "array_get" => Instr::ArrayGet(elem_kind(need("an element kind")?, line)?),
            "array_set" => Instr::ArraySet(elem_kind(need("an element kind")?, line)?),
            "array_len" => Instr::ArrayLen,
            "is_null" => Instr::IsNull,
            "ref_eq" => Instr::RefEq,
            "call" => {
                let name = need("a method name")?;
                Instr::Call(
                    *method_ids
                        .get(name)
                        .ok_or_else(|| err(line, format!("unknown method {name:?}")))?,
                )
            }
            "return" => Instr::Return,
            "return_val" => Instr::ReturnVal,
            other => return Err(err(line, format!("unknown mnemonic {other:?}"))),
        };
        out.push(i);
    }
    Ok(out)
}

/// Total locals of an assembled method is `params + locals=` — the raw
/// definition path used by the assembler.
impl ProgramBuilder {
    /// Look up a class id by name (assembler support).
    #[must_use]
    pub fn class_id(&self, name: &str) -> Option<crate::program::ClassId> {
        self.class_id_by_name(name)
    }

    pub(crate) fn define_method_raw(&mut self, id: MethodId, extra_locals: u16, body: Vec<Instr>) {
        let (name, params, returns) = {
            let d = &self.methods_ref()[id.0 as usize];
            (d.name().to_string(), d.params(), d.returns_value())
        };
        self.replace_method(
            id,
            MethodDef::new(name, params, params + extra_locals, returns, body),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disasm;

    const LIST_SUM: &str = r"
        class Node { ref next; int v; }
        static total: int;

        method sum(1) returns locals=1 {
            const 0
            store 1
        loop:
            load 0
            is_null
            jump_if done
            load 1
            load 0
            get_field Node.v
            add
            store 1
            load 0
            get_field Node.next
            store 0
            jump loop
        done:
            load 1
            return_val
        }

        method main(0) locals=2 {
            # build two nodes: 40 -> 2
            new Node
            store 0
            load 0
            const 40
            put_field Node.v
            new Node
            store 1
            load 1
            const 2
            put_field Node.v
            load 0
            load 1
            put_field Node.next
            load 0
            call sum
            put_static total
            return
        }
    ";

    #[test]
    fn assembles_and_verifies() {
        let p = assemble(LIST_SUM).expect("assembles");
        assert_eq!(p.classes().len(), 1);
        assert_eq!(p.methods().len(), 2);
        assert_eq!(p.method_by_name("main"), Some(p.entry()));
        let text = disasm::program(&p);
        assert!(text.contains("get_field Node::v"), "{text}");
    }

    #[test]
    fn labels_resolve_forward_and_backward() {
        let p = assemble(LIST_SUM).unwrap();
        let sum = p.method_by_name("sum").unwrap();
        let body = p.method(sum).body();
        assert!(matches!(body[4], Instr::JumpIf(t) if t as usize == body.len() - 2));
        assert!(matches!(body[body.len() - 3], Instr::Jump(2)));
    }

    #[test]
    fn error_reports_line_numbers() {
        let e = assemble("method main(0) locals=0 {\n  bogus_op\n  return\n}").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("bogus_op"));
    }

    #[test]
    fn unknown_label_rejected() {
        let e = assemble("method main(0) locals=0 {\n  jump nowhere\n  return\n}").unwrap_err();
        assert!(e.message.contains("nowhere"), "{e}");
    }

    #[test]
    fn unknown_field_rejected() {
        let src = "class A { int x; }\nmethod main(0) locals=0 {\n  const_null\n  get_field A.y\n  pop\n  return\n}";
        let e = assemble(src).unwrap_err();
        assert!(e.message.contains("A.y"), "{e}");
    }

    #[test]
    fn missing_main_rejected() {
        let e = assemble("method helper(0) locals=0 {\n  return\n}").unwrap_err();
        assert!(e.message.contains("main"), "{e}");
    }

    #[test]
    fn verification_errors_surface() {
        // pops from an empty stack
        let e = assemble("method main(0) locals=0 {\n  pop\n  return\n}").unwrap_err();
        assert!(e.message.contains("verification failed"), "{e}");
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let p = assemble("# leading comment\n\nmethod main(0) locals=0 { // trailing\n  return\n}")
            .unwrap();
        assert_eq!(p.method(p.entry()).len(), 1);
    }
}
