package a

import "fmt"

// coldUnmarked sits in a file with no hotpath scope: fmt stays legal here.
func coldUnmarked(n int) string { return fmt.Sprintf("%d", n) }
