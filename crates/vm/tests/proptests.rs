//! Differential testing: random expression programs are executed by the
//! VM and by a direct Rust evaluator; results must agree exactly. Each
//! case is reproducible from its seed.

use hpmopt_bytecode::builder::{MethodBuilder, ProgramBuilder};
use hpmopt_bytecode::{FieldType, Program};
use hpmopt_prim::Rng;
use hpmopt_vm::{NoHooks, Value, Vm, VmConfig};

/// Cases per property.
const CASES: u64 = 128;

/// A random arithmetic expression tree.
#[derive(Debug)]
enum Expr {
    Const(i64),
    Add(Box<Expr>, Box<Expr>),
    Sub(Box<Expr>, Box<Expr>),
    Mul(Box<Expr>, Box<Expr>),
    Xor(Box<Expr>, Box<Expr>),
    Shl(Box<Expr>, Box<Expr>),
    Lt(Box<Expr>, Box<Expr>),
    Neg(Box<Expr>),
}

/// A tree at most `depth` operators deep, in which each node is a leaf
/// with probability 1/4.
fn expr(rng: &mut Rng, depth: u32) -> Expr {
    if depth == 0 || rng.chance(25) {
        return Expr::Const(rng.next_u64() as i64);
    }
    let sub = |rng: &mut Rng| Box::new(expr(rng, depth - 1));
    match rng.below(7) {
        0 => Expr::Add(sub(rng), sub(rng)),
        1 => Expr::Sub(sub(rng), sub(rng)),
        2 => Expr::Mul(sub(rng), sub(rng)),
        3 => Expr::Xor(sub(rng), sub(rng)),
        4 => Expr::Shl(sub(rng), sub(rng)),
        5 => Expr::Lt(sub(rng), sub(rng)),
        _ => Expr::Neg(sub(rng)),
    }
}

/// The expression for one seed, up to six operators deep.
fn case(seed: u64) -> Expr {
    expr(&mut Rng::new(seed), 6)
}

/// The reference semantics.
fn eval(e: &Expr) -> i64 {
    match e {
        Expr::Const(v) => *v,
        Expr::Add(a, b) => eval(a).wrapping_add(eval(b)),
        Expr::Sub(a, b) => eval(a).wrapping_sub(eval(b)),
        Expr::Mul(a, b) => eval(a).wrapping_mul(eval(b)),
        Expr::Xor(a, b) => eval(a) ^ eval(b),
        Expr::Shl(a, b) => eval(a).wrapping_shl(eval(b) as u32 & 63),
        Expr::Lt(a, b) => i64::from(eval(a) < eval(b)),
        Expr::Neg(a) => eval(a).wrapping_neg(),
    }
}

/// Compile the expression to stack code (operands left-to-right).
fn emit(m: &mut MethodBuilder, e: &Expr) {
    match e {
        Expr::Const(v) => {
            m.const_i(*v);
        }
        Expr::Add(a, b) => {
            emit(m, a);
            emit(m, b);
            m.add();
        }
        Expr::Sub(a, b) => {
            emit(m, a);
            emit(m, b);
            m.sub();
        }
        Expr::Mul(a, b) => {
            emit(m, a);
            emit(m, b);
            m.mul();
        }
        Expr::Xor(a, b) => {
            emit(m, a);
            emit(m, b);
            m.xor();
        }
        Expr::Shl(a, b) => {
            emit(m, a);
            emit(m, b);
            m.shl();
        }
        Expr::Lt(a, b) => {
            emit(m, a);
            emit(m, b);
            m.lt();
        }
        Expr::Neg(a) => {
            emit(m, a);
            m.neg();
        }
    }
}

fn program_for(e: &Expr) -> Program {
    let mut pb = ProgramBuilder::new();
    let g = pb.add_static("result", FieldType::Int);
    let mut m = MethodBuilder::new("main", 0, 0, false);
    emit(&mut m, e);
    m.put_static(g);
    m.ret();
    let id = pb.add_method(m);
    pb.set_entry(id);
    pb.finish().expect("expression programs verify")
}

fn run_vm(p: &Program) -> i64 {
    let mut vm = Vm::new(p, VmConfig::test());
    vm.run(&mut NoHooks).expect("expression programs run");
    match vm.static_value(0) {
        Value::Int(v) => v,
        Value::Ref(_) => panic!("expression result must be an integer"),
    }
}

/// The interpreter agrees with direct evaluation on every expression.
#[test]
fn vm_matches_reference_semantics() {
    for seed in 0..CASES {
        let e = case(seed);
        let p = program_for(&e);
        assert_eq!(run_vm(&p), eval(&e), "seed {seed}: {e:?}");
    }
}

/// Cycle accounting is deterministic and positive.
#[test]
fn execution_is_deterministic() {
    for seed in 0..CASES {
        let p = program_for(&case(seed));
        let run = || {
            let mut vm = Vm::new(&p, VmConfig::test());
            vm.run(&mut NoHooks).unwrap().cycles
        };
        let a = run();
        assert!(a > 0, "seed {seed}");
        assert_eq!(a, run(), "seed {seed}");
    }
}
