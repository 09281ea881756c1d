// Package fleet is the distribution layer of the compile service: the
// pieces that turn a set of independent recordd nodes into one fleet that
// survives any single node dying mid-compile.
//
// It provides two mechanisms, both deterministic and free of I/O so
// both sides of the wire can share them:
//
//   - Ring: a consistent-hash ring with virtual nodes, keyed on the
//     artifact SHA-256 content address (internal/artifact).  The ring
//     decides which node owns a model's retarget product; removing a node
//     remaps only that node's keys, so a node death never reshuffles the
//     whole fleet's cache locality.
//
//   - Rendezvous: highest-random-weight replica selection.  Given a key
//     and a candidate set it yields a deterministic preference order that
//     every node computes identically without coordination — used to pick
//     which peers to consult for artifact replication.
//
// Endpoint health is not a state machine of its own: NewHealth supplies
// the resilience.Breaker policy, keyed by endpoint, that both the fleet
// client and recordd's peer walk route by, and Prober feeds it periodic
// /healthz outcomes.
//
// Everything here is safe for concurrent use and stdlib-only, in the
// style of internal/resilience.
package fleet
