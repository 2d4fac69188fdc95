//! The Java Card bytecode subset.
//!
//! Branch targets are *instruction indices* within the method (not byte
//! offsets) — the interpreter works on decoded instruction vectors, as
//! the paper's functional SystemC model does.

use std::fmt;

/// Identifies a method in the [`Interpreter`](crate::interp::Interpreter)
/// table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MethodId(pub u8);

impl fmt::Display for MethodId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// One instruction of the subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // semantics follow the JCVM spec
pub enum Bytecode {
    Nop,
    /// Push a small constant.
    Const(i32),
    Iadd,
    Isub,
    Imul,
    Iand,
    Ior,
    Ixor,
    Ineg,
    Ishl,
    Ishr,
    Dup,
    Pop,
    Swap,
    /// Push local variable `n`.
    Iload(u8),
    /// Pop into local variable `n`.
    Istore(u8),
    /// Add the immediate to local `n` without touching the stack.
    Iinc(u8, i8),
    /// Branch if popped value == 0.
    IfEq(u16),
    /// Branch if popped value != 0.
    IfNe(u16),
    /// Branch if popped value < 0.
    IfLt(u16),
    /// Branch if popped value >= 0.
    IfGe(u16),
    /// Pop b, pop a, branch if a == b.
    IfIcmpEq(u16),
    /// Pop b, pop a, branch if a != b.
    IfIcmpNe(u16),
    /// Pop b, pop a, branch if a < b.
    IfIcmpLt(u16),
    /// Pop b, pop a, branch if a >= b.
    IfIcmpGe(u16),
    Goto(u16),
    /// Call a static method; arguments are popped into its locals.
    Invokestatic(MethodId),
    /// Return void.
    Return,
    /// Return the popped value to the caller's stack.
    Ireturn,
    /// Push static field `n`.
    Getstatic(u8),
    /// Pop into static field `n`.
    Putstatic(u8),
    /// Push `array[index]` (pops index, then handle).
    ArrayLoad,
    /// `array[index] = value` (pops value, index, handle).
    ArrayStore,
    /// Push the length of the array whose handle is popped.
    ArrayLength,
    /// Allocate an array of the popped length; push its handle.
    NewArray,
}

/// A method: its code, frame shape and firewall context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Method {
    /// The instruction vector.
    pub code: Vec<Bytecode>,
    /// Number of arguments (popped from the caller's stack into locals
    /// 0..n_args).
    pub n_args: u8,
    /// Total local-variable slots (≥ `n_args`).
    pub n_locals: u8,
    /// Firewall context owning the method.
    pub context: crate::firewall::Context,
    /// True if other contexts may invoke it (shareable interface).
    pub entry_point: bool,
}

impl Method {
    /// Creates a context-0, non-shared method.
    pub fn new(code: Vec<Bytecode>, n_args: u8, n_locals: u8) -> Self {
        assert!(n_locals >= n_args, "locals must include the arguments");
        Method {
            code,
            n_args,
            n_locals,
            context: crate::firewall::Context(0),
            entry_point: false,
        }
    }

    /// Sets the owning firewall context.
    pub fn in_context(mut self, ctx: crate::firewall::Context) -> Self {
        self.context = ctx;
        self
    }

    /// Marks the method callable across contexts.
    pub fn shared(mut self) -> Self {
        self.entry_point = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::firewall::Context;

    #[test]
    fn method_builder_sets_flags() {
        let m = Method::new(vec![Bytecode::Return], 1, 2)
            .in_context(Context(3))
            .shared();
        assert_eq!(m.context, Context(3));
        assert!(m.entry_point);
        assert_eq!(m.n_args, 1);
    }

    #[test]
    #[should_panic(expected = "locals must include")]
    fn locals_fewer_than_args_rejected() {
        let _ = Method::new(vec![], 3, 2);
    }
}
