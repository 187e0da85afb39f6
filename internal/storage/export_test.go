package storage

// ForcePortable makes b serve through the package-os body whatever the
// platform, so one machine can hold both bodies to the same table.
func (b *DirBackend) ForcePortable() { b.portable = true }

// RaceEnabled is raceEnabled for the external test package.
const RaceEnabled = raceEnabled
