package tiering

// The fixtures the package's external tests share with its own.
var (
	RunSim        = runSim
	TieredFixture = tieredFixture
	DeviceFixture = deviceFixture
)
