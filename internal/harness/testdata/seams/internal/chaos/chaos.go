package chaos

// A text grep catches a quoted verb compared or cased on.
func isKill(w string) bool { return w == "kill" } // want verb

func parse(w string) int {
	switch w {
	case "restart": // want verb
		return 1
	}
	return 0
}

// It misses a verb name held in a named constant.
const restartVerb = "restart"

func isRestart(w string) bool { return restartVerb == w } // want verb

// A word that is no verb: not reported.
func isKiller(w string) bool { return w == "killer" }
