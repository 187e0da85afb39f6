package ipc

// sysMemfdCreate is memfd_create(2), which package syscall does not name
// on this architecture.
const sysMemfdCreate = 319
