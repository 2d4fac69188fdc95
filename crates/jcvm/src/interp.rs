//! The bytecode interpreter.
//!
//! Functional and untimed, exactly like the paper's model: its only
//! connection to simulated time is the operand stack it is handed — a
//! [`SoftStack`](crate::stack::SoftStack) costs nothing, a
//! [`BusStack`](crate::adapter::BusStack) turns every push/pop into bus
//! transactions.

use crate::bytecode::{Bytecode, Method, MethodId};
use crate::error::JcvmError;
use crate::firewall::Firewall;
use crate::memory::MemoryManager;
use crate::stack::OperandStack;

#[derive(Debug)]
struct Frame {
    method: usize,
    pc: usize,
    locals: Vec<i32>,
}

/// The VM: method table, memory manager, firewall.
#[derive(Debug, Default)]
pub struct Interpreter {
    methods: Vec<Method>,
    /// Static fields and arrays.
    pub memory: MemoryManager,
    /// The applet firewall.
    pub firewall: Firewall,
    steps: u64,
}

impl Interpreter {
    /// Creates an empty VM.
    pub fn new() -> Self {
        Interpreter::default()
    }

    /// Installs a method; returns its id.
    ///
    /// # Panics
    ///
    /// Panics once the 256-entry method table is full.
    pub fn add_method(&mut self, method: Method) -> MethodId {
        let id = self.methods.len();
        assert!(id < 256, "method table full");
        self.methods.push(method);
        MethodId(id as u8)
    }

    /// Bytecodes executed so far (across runs).
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Runs `entry` with `args` as its first locals, using `stack` as
    /// the operand stack. Returns the value of a terminating `ireturn`,
    /// or `None` for `return`.
    ///
    /// # Errors
    ///
    /// Any [`JcvmError`] raised by execution, including
    /// [`JcvmError::Timeout`] after `max_steps` bytecodes.
    pub fn run<S: OperandStack>(
        &mut self,
        entry: MethodId,
        args: &[i32],
        stack: &mut S,
        max_steps: u64,
    ) -> Result<Option<i32>, JcvmError> {
        let m = self
            .methods
            .get(entry.0 as usize)
            .ok_or(JcvmError::NoSuchMethod(entry.0))?;
        assert_eq!(
            args.len(),
            m.n_args as usize,
            "entry arguments must match the method signature"
        );
        let mut locals = vec![0i32; m.n_locals as usize];
        locals[..args.len()].copy_from_slice(args);
        let mut frames = vec![Frame {
            method: entry.0 as usize,
            pc: 0,
            locals,
        }];
        let mut budget = max_steps;

        loop {
            if budget == 0 {
                return Err(JcvmError::Timeout);
            }
            budget -= 1;
            self.steps += 1;

            let frame = frames.last_mut().expect("a frame is always active");
            let method = &self.methods[frame.method];
            let Some(&op) = method.code.get(frame.pc) else {
                // Falling off the end acts as a void return.
                frames.pop();
                if frames.is_empty() {
                    return Ok(None);
                }
                continue;
            };
            let ctx = method.context;
            let code_len = method.code.len();
            frame.pc += 1;

            macro_rules! branch {
                ($target:expr, $cond:expr) => {{
                    if $cond {
                        let t = $target as usize;
                        if t >= code_len {
                            return Err(JcvmError::BadBranch);
                        }
                        frame.pc = t;
                    }
                }};
            }
            macro_rules! binop {
                ($f:expr) => {{
                    let b = stack.pop()?;
                    let a = stack.pop()?;
                    #[allow(clippy::redundant_closure_call)]
                    stack.push($f(a, b))?;
                }};
            }

            match op {
                Bytecode::Nop => {}
                Bytecode::Const(v) => stack.push(v)?,
                Bytecode::Iadd => binop!(|a: i32, b: i32| a.wrapping_add(b)),
                Bytecode::Isub => binop!(|a: i32, b: i32| a.wrapping_sub(b)),
                Bytecode::Imul => binop!(|a: i32, b: i32| a.wrapping_mul(b)),
                Bytecode::Iand => binop!(|a, b| a & b),
                Bytecode::Ior => binop!(|a, b| a | b),
                Bytecode::Ixor => binop!(|a, b| a ^ b),
                Bytecode::Ishl => binop!(|a: i32, b: i32| a.wrapping_shl(b as u32 & 31)),
                Bytecode::Ishr => binop!(|a: i32, b: i32| a.wrapping_shr(b as u32 & 31)),
                Bytecode::Ineg => {
                    let v = stack.pop()?;
                    stack.push(v.wrapping_neg())?;
                }
                Bytecode::Dup => {
                    let v = stack.peek()?;
                    stack.push(v)?;
                }
                Bytecode::Pop => {
                    stack.pop()?;
                }
                Bytecode::Swap => {
                    let b = stack.pop()?;
                    let a = stack.pop()?;
                    stack.push(b)?;
                    stack.push(a)?;
                }
                Bytecode::Iload(n) => {
                    let v = *frame.locals.get(n as usize).ok_or(JcvmError::BadLocal(n))?;
                    stack.push(v)?;
                }
                Bytecode::Istore(n) => {
                    let v = stack.pop()?;
                    *frame
                        .locals
                        .get_mut(n as usize)
                        .ok_or(JcvmError::BadLocal(n))? = v;
                }
                Bytecode::Iinc(n, delta) => {
                    let slot = frame
                        .locals
                        .get_mut(n as usize)
                        .ok_or(JcvmError::BadLocal(n))?;
                    *slot = slot.wrapping_add(delta as i32);
                }
                Bytecode::IfEq(t) => branch!(t, stack.pop()? == 0),
                Bytecode::IfNe(t) => branch!(t, stack.pop()? != 0),
                Bytecode::IfLt(t) => branch!(t, stack.pop()? < 0),
                Bytecode::IfGe(t) => branch!(t, stack.pop()? >= 0),
                Bytecode::IfIcmpEq(t) => {
                    let b = stack.pop()?;
                    let a = stack.pop()?;
                    branch!(t, a == b);
                }
                Bytecode::IfIcmpNe(t) => {
                    let b = stack.pop()?;
                    let a = stack.pop()?;
                    branch!(t, a != b);
                }
                Bytecode::IfIcmpLt(t) => {
                    let b = stack.pop()?;
                    let a = stack.pop()?;
                    branch!(t, a < b);
                }
                Bytecode::IfIcmpGe(t) => {
                    let b = stack.pop()?;
                    let a = stack.pop()?;
                    branch!(t, a >= b);
                }
                Bytecode::Goto(t) => branch!(t, true),
                Bytecode::Invokestatic(id) => {
                    let callee = self
                        .methods
                        .get(id.0 as usize)
                        .ok_or(JcvmError::NoSuchMethod(id.0))?;
                    self.firewall
                        .check(ctx, callee.context, callee.entry_point)?;
                    let mut locals = vec![0i32; callee.n_locals as usize];
                    // Arguments pop in reverse order (last pushed is the
                    // last argument); pop_many lets a bus-attached stack
                    // fetch them as one burst.
                    let n_args = callee.n_args as usize;
                    let popped = stack.pop_many(n_args)?;
                    for (k, v) in popped.into_iter().enumerate() {
                        locals[n_args - 1 - k] = v;
                    }
                    let method = id.0 as usize;
                    frames.push(Frame {
                        method,
                        pc: 0,
                        locals,
                    });
                }
                Bytecode::Return => {
                    frames.pop();
                    if frames.is_empty() {
                        return Ok(None);
                    }
                }
                Bytecode::Ireturn => {
                    let v = stack.pop()?;
                    frames.pop();
                    if frames.is_empty() {
                        return Ok(Some(v));
                    }
                    stack.push(v)?;
                }
                Bytecode::Getstatic(i) => {
                    let v = self.memory.get_static(&mut self.firewall, ctx, i)?;
                    stack.push(v)?;
                }
                Bytecode::Putstatic(i) => {
                    let v = stack.pop()?;
                    self.memory.put_static(&mut self.firewall, ctx, i, v)?;
                }
                Bytecode::ArrayLoad => {
                    let index = stack.pop()?;
                    let handle = stack.pop()?;
                    let v = self
                        .memory
                        .array_load(&mut self.firewall, ctx, handle, index)?;
                    stack.push(v)?;
                }
                Bytecode::ArrayStore => {
                    let value = stack.pop()?;
                    let index = stack.pop()?;
                    let handle = stack.pop()?;
                    self.memory
                        .array_store(&mut self.firewall, ctx, handle, index, value)?;
                }
                Bytecode::ArrayLength => {
                    let handle = stack.pop()?;
                    stack.push(self.memory.array_length(handle)?)?;
                }
                Bytecode::NewArray => {
                    let len = stack.pop()?;
                    let handle = self.memory.new_array(ctx, len)?;
                    stack.push(handle)?;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::firewall::Context;
    use crate::stack::SoftStack;
    use Bytecode::*;

    fn run_main(code: Vec<Bytecode>, n_locals: u8) -> Result<Option<i32>, JcvmError> {
        let mut vm = Interpreter::new();
        let main = vm.add_method(Method::new(code, 0, n_locals));
        let mut stack = SoftStack::new(64);
        vm.run(main, &[], &mut stack, 100_000)
    }

    #[test]
    fn arithmetic_and_return() {
        let r = run_main(vec![Const(6), Const(7), Imul, Ireturn], 0);
        assert_eq!(r, Ok(Some(42)));
    }

    #[test]
    fn locals_and_loop_sum() {
        // locals: 0 = i (10..0), 1 = acc; sum 1..=10 = 55.
        let code = vec![
            Const(10),
            Istore(0),
            Const(0),
            Istore(1),
            // loop @4:
            Iload(1),
            Iload(0),
            Iadd,
            Istore(1),
            Iinc(0, -1),
            Iload(0),
            IfNe(4),
            Iload(1),
            Ireturn,
        ];
        assert_eq!(run_main(code, 2), Ok(Some(55)));
    }

    #[test]
    fn static_method_call_with_args() {
        let mut vm = Interpreter::new();
        // add(a, b) = a + b
        let add = vm.add_method(Method::new(vec![Iload(0), Iload(1), Iadd, Ireturn], 2, 2));
        let main = vm.add_method(Method::new(
            vec![Const(30), Const(12), Invokestatic(add), Ireturn],
            0,
            0,
        ));
        let mut stack = SoftStack::new(64);
        assert_eq!(vm.run(main, &[], &mut stack, 1_000), Ok(Some(42)));
    }

    #[test]
    fn recursion_fib() {
        let mut vm = Interpreter::new();
        // fib(n): n < 2 ? n : fib(n-1) + fib(n-2)
        let fib_id = MethodId(0);
        let code = vec![
            Iload(0),
            Const(2),
            IfIcmpLt(10),
            Iload(0),
            Const(1),
            Isub,
            Invokestatic(fib_id),
            Iload(0),
            Const(2),
            Isub,
            // @10: base case (jumped with n still wanted) — layout below
            Ireturn, // placeholder replaced
        ];
        // Easier to write explicitly:
        let code = {
            let _ = code;
            vec![
                Iload(0),
                Const(2),
                IfIcmpGe(5), // if n >= 2 goto recurse
                Iload(0),
                Ireturn,
                // recurse @5:
                Iload(0),
                Const(1),
                Isub,
                Invokestatic(fib_id),
                Iload(0),
                Const(2),
                Isub,
                Invokestatic(fib_id),
                Iadd,
                Ireturn,
            ]
        };
        let id = vm.add_method(Method::new(code, 1, 1));
        assert_eq!(id, fib_id);
        let mut stack = SoftStack::new(256);
        assert_eq!(vm.run(fib_id, &[10], &mut stack, 1_000_000), Ok(Some(55)));
    }

    #[test]
    fn firewall_blocks_cross_context_calls() {
        let mut vm = Interpreter::new();
        let secret =
            vm.add_method(Method::new(vec![Const(1), Ireturn], 0, 0).in_context(Context(2)));
        let shared = vm.add_method(
            Method::new(vec![Const(2), Ireturn], 0, 0)
                .in_context(Context(2))
                .shared(),
        );
        let main = vm.add_method(
            Method::new(vec![Invokestatic(secret), Ireturn], 0, 0).in_context(Context(1)),
        );
        let main2 = vm.add_method(
            Method::new(vec![Invokestatic(shared), Ireturn], 0, 0).in_context(Context(1)),
        );
        let mut stack = SoftStack::new(64);
        assert_eq!(
            vm.run(main, &[], &mut stack, 1_000),
            Err(JcvmError::SecurityViolation)
        );
        let mut stack = SoftStack::new(64);
        assert_eq!(vm.run(main2, &[], &mut stack, 1_000), Ok(Some(2)));
    }

    #[test]
    fn arrays_work_through_bytecodes() {
        let code = vec![
            Const(4),
            NewArray,
            Istore(0),
            Iload(0),
            Const(2),
            Const(99),
            ArrayStore,
            Iload(0),
            Const(2),
            ArrayLoad,
            Iload(0),
            ArrayLength,
            Iadd,
            Ireturn,
        ];
        assert_eq!(run_main(code, 1), Ok(Some(103)));
    }

    #[test]
    fn statics_roundtrip() {
        let mut vm = Interpreter::new();
        let field = vm.memory.add_static(5, Context(0), false);
        let main = vm.add_method(Method::new(
            vec![
                Getstatic(field),
                Const(1),
                Iadd,
                Putstatic(field),
                Getstatic(field),
                Ireturn,
            ],
            0,
            0,
        ));
        let mut stack = SoftStack::new(8);
        assert_eq!(vm.run(main, &[], &mut stack, 1_000), Ok(Some(6)));
    }

    #[test]
    fn runaway_hits_timeout() {
        let r = run_main(vec![Goto(0)], 0);
        assert_eq!(r, Err(JcvmError::Timeout));
    }

    #[test]
    fn bad_branch_detected() {
        let r = run_main(vec![Goto(99)], 0);
        assert_eq!(r, Err(JcvmError::BadBranch));
    }

    #[test]
    fn swap_and_dup() {
        let r = run_main(vec![Const(1), Const(2), Swap, Isub, Ireturn], 0);
        assert_eq!(r, Ok(Some(1))); // 2 - 1 after swap
        let r = run_main(vec![Const(3), Dup, Imul, Ireturn], 0);
        assert_eq!(r, Ok(Some(9)));
    }
}
