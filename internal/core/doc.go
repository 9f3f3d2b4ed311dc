// Package core implements the paper's primary contribution: the SiMany
// discrete-event simulation kernel with spatial synchronization.
//
// # Execution model
//
// Each simulated task runs as a coroutine (iter.Pull — SiMany's
// non-preemptive userland threads); a per-core scheduler multiplexes the
// tasks resident on a core over the core's single virtual clock. The kernel
// runs exactly one task at a time and switches to and from it directly, on
// the same host thread, so the whole simulation is single-threaded in
// effect and deterministic for a fixed seed, as in the paper ("SiMany only
// requires a single core to run", §VII).
//
// When the kernel resumes a task it hands it a horizon: the virtual time at
// which its core would have to stall under the active synchronization
// policy. Until the horizon is crossed, Compute annotations are pure local
// arithmetic — this reproduces SiMany's key speed property that "cores can
// be simulated without interruption during longer phases than in schemes
// where they have to check their progress against a unique global window"
// (§I).
//
// # Virtual timing
//
// Message arrival times are computed analytically at send time by the
// network model (latency, bandwidth, chunking and per-link contention);
// handlers for architectural messages run immediately and operate purely on
// the embedded virtual timestamps. This eager delivery preserves the
// paper's out-of-order processing semantics — two messages from different
// senders can carry timestamps in the opposite order of their processing —
// while making the in-flight-task drift problem of §II.A structurally
// impossible; birth-time tracking is nevertheless implemented (a spawned
// task counts as a neighbor of its spawning core until it arrives at its
// final destination), which is the bound the paper enforces.
//
// # Spatial synchronization
//
// A core may not advance more than T beyond the minimum of its topological
// neighbors' effective virtual times. Idle cores advertise a shadow time
// (min of their neighbors' effective times plus T) and propagate changes
// like real time updates, which keeps non-connected sets of active cores
// synchronized through idle regions (§II.A, Fig. 2). A core holding a lock
// is exempted from stalling until it releases it, which prevents the
// deadlock of §II.B (Fig. 4).
package core
