// Package fleet is the distribution layer of the compile service: the
// pieces the client (internal/rclient) uses to spread requests over a set
// of independent recordd nodes and to survive any single node dying
// mid-compile.  Nodes never talk to each other; a node that lacks a
// model's artifact retargets it, which is cheaper than copying it.
//
//   - Ring: a consistent-hash ring with virtual nodes, keyed on the
//     artifact SHA-256 content address (internal/artifact).  The ring
//     decides which node a model's requests go to first, and in which
//     order the rest are tried when it is down; dropping a node from the
//     ring remaps only that node's keys, so a node death never reshuffles
//     the whole fleet's cache locality.
//
//   - NewHealth: the resilience.Breaker policy, keyed by endpoint, that
//     the client consults before contacting each node.
//
// Everything here is safe for concurrent use and stdlib-only, in the
// style of internal/resilience.
package fleet
