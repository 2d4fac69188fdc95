//! The Java Card VM case study (§4.3 of the paper).
//!
//! The paper demonstrates its energy-aware TLM bus as the vehicle for
//! HW/SW-interface exploration: a *functional, untimed* Java Card VM
//! model (bytecode interpreter, memory manager, firewall, stack) is
//! refined so that the interpreter talks to a **hardware stack** through
//! a master adapter → TLM bus → slave adapter chain, and the explored
//! variables are "the address map, organization of these [special
//! function] registers and used bus transactions to access them".
//!
//! This crate is that whole pipeline:
//!
//! * [`bytecode`], [`interp`] — a Java Card bytecode subset and its
//!   interpreter, with [`firewall`] contexts and a [`memory`] manager
//!   for static fields and arrays.
//! * [`stack`] — the operand-stack interface ([`stack::OperandStack`])
//!   and the pure-software [`stack::SoftStack`] of the unrefined model
//!   (Fig. 7a).
//! * [`hwstack`] — the hardware stack as a bus slave (the slave adapter
//!   plus the stack itself, Fig. 7b right).
//! * [`adapter`] — the master adapter implementing
//!   [`stack::OperandStack`] by issuing bus transactions per an
//!   [`adapter::IfaceConfig`].
//! * [`explore`](mod@explore) — the exploration driver: every interface configuration
//!   × workload, measured in cycles and layer-1 energy.
//! * [`workloads`] — the benchmark applets (arithmetic loop, recursive
//!   calls, array checksum, crypto-style bit mixing).

//! # Example
//!
//! ```
//! use hierbus_jcvm::{Bytecode, Interpreter, Method, SoftStack};
//!
//! let mut vm = Interpreter::new();
//! let main = vm.add_method(Method::new(
//!     vec![Bytecode::Const(6), Bytecode::Const(7), Bytecode::Imul, Bytecode::Ireturn],
//!     0,
//!     0,
//! ));
//! let mut stack = SoftStack::new(16);
//! assert_eq!(vm.run(main, &[], &mut stack, 1_000), Ok(Some(42)));
//! ```

pub mod adapter;
pub mod bytecode;
pub mod error;
pub mod explore;
pub mod firewall;
pub mod hwstack;
pub mod interp;
pub mod memory;
pub mod stack;
pub mod workloads;

pub use adapter::{BusStack, IfaceConfig, RegOrganization, StatusPolicy};
pub use bytecode::{Bytecode, Method, MethodId};
pub use error::JcvmError;
pub use explore::{
    explore, explore_campaign, explore_matrix, run_config, ExplorationRow, ExploreSession,
};
pub use firewall::{Context, Firewall};
pub use hwstack::HwStackSlave;
pub use interp::Interpreter;
pub use memory::MemoryManager;
pub use stack::{OperandStack, SoftStack};
pub use workloads::Workload;
