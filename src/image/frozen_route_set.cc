#include "src/image/frozen_route_set.h"

#include <cstdlib>

#include "src/image/image_writer.h"

namespace pathalias {
namespace {

// The writer's own output always validates; a failure here is a writer bug, not
// bad input, so there is no error path to hand back.
image::ImageView AdoptFreshImage(std::string_view bytes) {
  std::optional<image::ImageView> view =
      image::ImageView::Adopt(bytes, image::ImageView::Verify::kStructure, nullptr);
  if (!view) {
    std::abort();
  }
  return *view;
}

}  // namespace

FrozenImage::FrozenImage(const RouteSet& routes)
    : file_(image::MappedFile::FromBuffer(image::ImageWriter::Freeze(routes))),
      view_(AdoptFreshImage(file_.bytes())),
      set_(view_) {}

std::optional<FrozenImage> FrozenImage::Open(const std::string& path,
                                             image::ImageView::Verify verify,
                                             std::string* error, bool readahead) {
  std::optional<image::MappedFile> file = image::MappedFile::Open(path, readahead);
  if (!file) {
    if (error != nullptr) {
      *error = "cannot open or read " + path;
    }
    return std::nullopt;
  }
  std::optional<image::ImageView> view = image::ImageView::Adopt(file->bytes(), verify, error);
  if (!view) {
    return std::nullopt;
  }
  return FrozenImage(std::move(*file), *view);
}

}  // namespace pathalias
