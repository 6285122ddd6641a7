// Package chaos is the fixture's verb table: in verbs.go a verb name may be
// compared, so nothing here is reported.
package chaos

type verb struct{ name string }

var verbs = []verb{{name: "kill"}, {name: "restart"}}

func known(w string) bool { return w == "kill" }
