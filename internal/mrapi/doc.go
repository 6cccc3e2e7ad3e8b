// Package mrapi implements the Multicore Association Resource Management
// API (MRAPI) semantics in pure Go, including the two extensions introduced
// by the OpenMP-MCA paper (Sun, Chandrasekaran, Chapman — IPDPSW 2015):
//
//   - a node/thread extension (mrapi_thread_create, paper Listing 2) that
//     lets an MRAPI node own lightweight worker threads so that a
//     thread-level runtime such as OpenMP can be layered on top of MRAPI
//     node management, and
//   - a shared-memory/malloc extension (mrapi_shmem_create_malloc, paper
//     Listing 3) that maps "shared memory" onto the process heap so
//     thread-level shared data does not pay the system-V IPC cost.
//
// The package models the MRAPI object universe faithfully:
//
//   - Domains group Nodes; a per-domain global database registers every
//     node and every resource so any node in the domain can look them up
//     by key, exactly as the C reference implementation's shared database
//     does.
//   - Nodes are independent units of execution. A node must be initialized
//     before it may create or use resources; using a finalized node yields
//     ErrNodeNotInit.
//   - Shared memory, remote memory, mutexes, semaphores and reader/writer
//     locks are created against integer keys and are visible domain-wide.
//   - Metadata is exposed as a resource tree (see metadata.go) produced by
//     the platform model; a System made by NewSystemFrom builds its tree
//     only when a node first asks for it.
//
// Blocking operations accept a Timeout; TimeoutInfinite blocks forever,
// matching MRAPI_TIMEOUT_INFINITE.
package mrapi
