// Package dirserver implements the paper's §5 client library split: a
// per-host directory server process that answers lookup_service queries
// from application processes over local IPC (#18 in DESIGN.md's system
// inventory).
//
// In the paper, the membership daemon keeps the directory and application
// processes on the same host query it through a small client library,
// so applications need not participate in the protocol. Here Server
// listens on a loopback TCP socket, is fed the current directory via
// Publish, and serves wire.DirQuery/DirReply frames (length-prefixed,
// bounded by maxFrame). Client is the application-side library: DialClient
// connects and Lookup runs the regex-over-service-name plus partition-spec
// query remotely, returning wire.DirMatch rows.
//
// This package uses real sockets, as examples/realudp does, and therefore
// runs on the OS scheduler, not the simulation engine; its tests, like that
// example's, touch the loopback interface.
package dirserver
