// Package hermes is a from-scratch Go reproduction of "Hermes: Enhancing
// Layer-7 Cloud Load Balancers with Userspace-Directed I/O Event
// Notification" (SIGCOMM 2025): a closed-loop connection dispatch framework
// in which userspace workers publish runtime status through a lock-free
// shared-memory table and an eBPF program attached at the reuseport hook
// steers new connections to the workers userspace selected.
//
// The paper's system runs on production Linux; every substrate it needs is
// rebuilt here in pure Go — see DESIGN.md for the inventory and
// substitution notes, EXPERIMENTS.md for the table/figure reproductions.
//
// Layout:
//
//   - internal/core — the contribution: Algorithm 1 scheduler, Algorithm 2
//     dispatch emitted as verified (simulated) eBPF bytecode, the controller;
//   - internal/{kernel,ebpf,shm,sim} — the substrates: simulated sockets /
//     epoll / reuseport, the eBPF VM and verifier, the lock-free Worker
//     Status Table, the discrete-event engine;
//   - internal/{l7lb,httpx,workload,probe,stats,bench} — the L7 LB
//     application, traffic models, and the evaluation harness;
//   - cmd/hermes-bench — regenerate every table and figure;
//   - cmd/hermes-lb — a real-TCP reverse proxy scheduled by the same loop;
//   - cmd/hermesctl — admin-API client, dump validators, span analyser;
//   - examples/ — runnable walkthroughs of the public surface.
package hermes

// Version identifies this reproduction.
const Version = "1.0.0"
