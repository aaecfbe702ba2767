package transport

import (
	"os"
	"testing"

	"gompi/internal/leak"
)

// TestMain fails the package when its tests leave a goroutine, a
// descriptor or a shared-memory segment behind (leak.Main).
func TestMain(m *testing.M) { os.Exit(leak.Main(m)) }
