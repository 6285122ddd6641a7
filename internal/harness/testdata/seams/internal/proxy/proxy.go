// Package proxy holds the shared state a text grep misses.
package proxy

import pool "sync"

// A renamed import.
var scratch pool.Pool // want shared
