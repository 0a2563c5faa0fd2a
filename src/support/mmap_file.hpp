// Read-only memory-mapped file with a read-all fallback.  The HLIB binary
// reader (`hli::HliStore`) maps the container and decodes units straight
// out of the mapping, so opening a large HLI file costs page-table setup,
// not a copy of the bytes.  When mmap is unavailable (non-regular file,
// empty file, exotic filesystem, non-POSIX platform) the contents are
// read into a heap buffer instead — callers only ever see a
// std::string_view either way.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace hli::support {

class MappedFile {
 public:
  MappedFile() = default;
  ~MappedFile();

  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  /// Opens and maps `path`.  Throws support::CompileError when the file
  /// cannot be opened or read; a failed mmap alone silently falls back to
  /// reading the whole file into memory.
  [[nodiscard]] static MappedFile open(const std::string& path);

  /// The file contents.  Valid for the lifetime of this object.
  [[nodiscard]] std::string_view view() const {
    return map_ != nullptr
               ? std::string_view(static_cast<const char*>(map_), map_size_)
               : std::string_view(fallback_.data(), fallback_.size());
  }

 private:
  void reset() noexcept;

  void* map_ = nullptr;
  std::size_t map_size_ = 0;
  std::vector<char> fallback_;
};

}  // namespace hli::support
