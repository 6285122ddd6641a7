// Package config parses the operator-facing configuration file format
// described in the paper's Fig. 7 (#11 in DESIGN.md's system inventory):
// *SYSTEM key=value settings followed by *SERVICE blocks declaring
// service name, partition list, and startup parameters.
//
// Parse/ParseString return a File whose SystemValue/SystemInt
// accessors read [system] keys (MulticastFrequency converts the paper's
// frequency setting to a heartbeat interval) and whose Services slice
// feeds service registration at node startup. Parsing is strict about
// section headers and duplicate keys so configuration mistakes surface
// at load time rather than as silent protocol misbehaviour.
package config
