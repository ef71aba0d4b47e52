//go:build !amd64 || purego

package core

import "ppcd/internal/ff64"

// hashRowsOneBlock is the kernel path of HashRows; this build has none.
func hashRowsOneBlock([]ff64.Elem, []CSS, [][]byte) bool { return false }
